package main

import (
	"encoding/json"
	"net/http"
	"testing"
)

// statsDoc is a decoded /stats body, read by JSON key — the wire
// contract, whichever Go struct rendered it.
type statsDoc map[string]any

func fetchStats(t *testing.T, base string) statsDoc {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: %s", resp.Status)
	}
	var d statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// n returns the number at the key path, 0 when there is none.
func (d statsDoc) n(path ...string) int64 {
	var v any = map[string]any(d)
	for _, k := range path {
		m, _ := v.(map[string]any)
		v = m[k]
	}
	f, _ := v.(float64)
	return int64(f)
}
