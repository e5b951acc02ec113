package plancache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFingerprintDeterministic(t *testing.T) {
	a := Fingerprint("device", "constraints", "op|m:1024|n:1024")
	b := Fingerprint("device", "constraints", "op|m:1024|n:1024")
	if a != b {
		t.Fatal("identical parts must fingerprint identically")
	}
}

func TestFingerprintDistinguishesParts(t *testing.T) {
	base := Fingerprint("dev", "cons", "matmul|1024x1024x4096|fp16")
	variants := []Key{
		Fingerprint("dev2", "cons", "matmul|1024x1024x4096|fp16"),    // device
		Fingerprint("dev", "cons2", "matmul|1024x1024x4096|fp16"),    // constraints
		Fingerprint("dev", "cons", "matmul|1024x1024x8192|fp16"),     // shape
		Fingerprint("dev", "cons", "matmul|1024x1024x4096|fp32"),     // dtype
		Fingerprint("dev", "cons", "matmul|1024x1024x4096|fp16 "),    // trailing byte
		Fingerprint("dev", "consmatmul", "|1024x1024x4096|fp16"),     // boundary shift
		Fingerprint("dev", "cons", "matmul|1024x1024x4096|fp16", ""), // extra empty part
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with base key", i)
		}
	}
}

func TestGetPutAndStats(t *testing.T) {
	c := New(Options{})
	k := Fingerprint("a")
	if _, ok := c.Get(k); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(k, "v1")
	v, ok := c.Get(k)
	if !ok || v.(string) != "v1" {
		t.Fatalf("got %v %v, want v1", v, ok)
	}
	c.Put(k, "v2") // refresh overwrites
	if v, _ := c.Get(k); v.(string) != "v2" {
		t.Fatalf("refresh did not overwrite: %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// one shard of three entries, so recency is globally ordered
	c := New(Options{})
	c.shards = c.shards[:1]
	c.shards[0].cap = 3
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = Fingerprint(fmt.Sprintf("k%d", i))
	}
	c.Put(keys[0], 0)
	c.Put(keys[1], 1)
	c.Put(keys[2], 2)
	c.Get(keys[0]) // refresh 0; 1 becomes least recent
	c.Put(keys[3], 3)
	if _, ok := c.Get(keys[1]); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(keys[i]); !ok {
			t.Errorf("entry %d evicted unexpectedly", i)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction / 3 entries", st)
	}
}

func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[{"fop":[16,1,32]}]}`)

	c := New(Options{Dir: dir})
	if _, ok := c.GetBlob(k); ok {
		t.Fatal("unexpected disk hit before write")
	}
	if err := c.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}

	// a fresh cache over the same dir (a new process) sees the entry
	c2 := New(Options{Dir: dir})
	got, ok := c2.GetBlob(k)
	if !ok || string(got) != string(blob) {
		t.Fatalf("disk roundtrip failed: %q %v", got, ok)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 disk hit", st)
	}
	// no stray temp files
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

func TestDiskDisabled(t *testing.T) {
	c := New(Options{})
	k := Fingerprint("op")
	if err := c.PutBlob(k, []byte("x")); err != nil {
		t.Fatalf("PutBlob without a dir must be a no-op, got %v", err)
	}
	if _, ok := c.GetBlob(k); ok {
		t.Fatal("GetBlob without a dir must miss")
	}
}

func TestPutBlobUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores file permissions")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	c := New(Options{Dir: filepath.Join(parent, "cache")})
	if err := c.PutBlob(Fingerprint("op"), []byte("x")); err == nil {
		t.Fatal("want error for unwritable cache dir")
	}
	if st := c.Stats(); st.DiskErrors == 0 {
		t.Error("disk error not counted")
	}
}

// rewriteBlob mutates the raw on-disk record for a key via fn — the
// attacker's (or bit rot's) view of the blob store.
func rewriteBlob(t *testing.T, dir string, k Key, fn func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, k.String()+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTamperedRecordIsRejectedMiss(t *testing.T) {
	dir := t.TempDir()
	salt := []byte("deployment-secret")
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[{"fop":[16,1,32]}]}`)

	c := New(Options{Dir: dir, Salt: salt})
	if err := c.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	// flip payload bytes in place; envelope still parses, MAC no longer
	// matches
	rewriteBlob(t, dir, k, func(raw []byte) []byte {
		return []byte(strings.Replace(string(raw), `[16,1,32]`, `[32,1,16]`, 1))
	})

	r := New(Options{Dir: dir, Salt: salt})
	if _, ok := r.GetBlob(k); ok {
		t.Fatal("tampered record must load as a miss")
	}
	st := r.Stats()
	if st.DiskRejects != 1 || st.DiskMisses != 1 {
		t.Fatalf("stats = %+v, want the reject counted as a miss", st)
	}

	// the fresh search's overwrite restores a loadable record
	if err := r.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := r.GetBlob(k)
	if !ok || string(got) != string(blob) {
		t.Fatalf("overwrite did not restore the record: %q %v", got, ok)
	}
}

func TestWrongSaltIsRejectedMiss(t *testing.T) {
	dir := t.TempDir()
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[]}`)

	w := New(Options{Dir: dir, Salt: []byte("deployment-a")})
	if err := w.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Dir: dir, Salt: []byte("deployment-b")})
	if _, ok := r.GetBlob(k); ok {
		t.Fatal("another deployment's record must load as a miss")
	}
	if st := r.Stats(); st.DiskRejects != 1 {
		t.Fatalf("stats = %+v, want 1 disk reject", st)
	}

	// an unsigned record is just as untrusted under a salt
	u := New(Options{Dir: dir})
	if err := u.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	r2 := New(Options{Dir: dir, Salt: []byte("deployment-a")})
	if _, ok := r2.GetBlob(k); ok {
		t.Fatal("unsigned record must not satisfy a salted reader")
	}

	// while a saltless reader skips MAC checks entirely
	if got, ok := u.GetBlob(k); !ok || string(got) != string(blob) {
		t.Fatalf("saltless roundtrip failed: %q %v", got, ok)
	}
}

func TestStaleBuilderIsRejectedMiss(t *testing.T) {
	dir := t.TempDir()
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[]}`)

	old := New(Options{Dir: dir, Builder: "t10-builder/4"})
	if err := old.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Dir: dir}) // DefaultBuilder
	if _, ok := r.GetBlob(k); ok {
		t.Fatal("a stale builder's record must load as a miss")
	}
	if st := r.Stats(); st.DiskRejects != 1 || st.DiskMisses != 1 {
		t.Fatalf("stats = %+v, want 1 reject / 1 miss", st)
	}
}

func TestKeyMismatchIsRejectedMiss(t *testing.T) {
	dir := t.TempDir()
	ka, kb := Fingerprint("op-a"), Fingerprint("op-b")
	c := New(Options{Dir: dir})
	if err := c.PutBlob(ka, []byte(`{"pareto":[]}`)); err != nil {
		t.Fatal(err)
	}
	// copy a's record to b's path: content address and envelope key no
	// longer agree
	raw, err := os.ReadFile(filepath.Join(dir, ka.String()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, kb.String()+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetBlob(kb); ok {
		t.Fatal("a record filed under the wrong key must load as a miss")
	}
	if st := c.Stats(); st.DiskRejects != 1 {
		t.Fatalf("stats = %+v, want 1 disk reject", st)
	}
}

// TestTruncatedRecordIsRejectedMiss is the crash-consistency table:
// however a record file ends up partially written — a crash mid-write
// on a filesystem that reordered the rename, bit rot, a full disk —
// loading it is a counted miss, never an error or a partial result,
// and the fresh search's overwrite restores a loadable record.
func TestTruncatedRecordIsRejectedMiss(t *testing.T) {
	blob := []byte(`{"pareto":[{"fop":[16,1,32]}]}`)
	cases := []struct {
		name     string
		truncate func([]byte) []byte
	}{
		{"empty file", func([]byte) []byte { return nil }},
		{"first byte only", func(raw []byte) []byte { return raw[:1] }},
		{"half the record", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"missing final byte", func(raw []byte) []byte { return raw[:len(raw)-1] }},
		{"valid prefix, torn tail", func(raw []byte) []byte {
			return append(append([]byte{}, raw[:len(raw)-8]...), 0, 0, 0, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			k := Fingerprint("op")
			c := New(Options{Dir: dir, Salt: []byte("secret")})
			if err := c.PutBlob(k, blob); err != nil {
				t.Fatal(err)
			}
			rewriteBlob(t, dir, k, tc.truncate)

			r := New(Options{Dir: dir, Salt: []byte("secret")})
			if _, ok := r.GetBlob(k); ok {
				t.Fatal("truncated record must load as a miss")
			}
			st := r.Stats()
			if st.DiskRejects != 1 || st.DiskMisses != 1 {
				t.Fatalf("stats = %+v, want the truncation counted as 1 reject / 1 miss", st)
			}
			// overwrite heals the store
			if err := r.PutBlob(k, blob); err != nil {
				t.Fatal(err)
			}
			if got, ok := r.GetBlob(k); !ok || string(got) != string(blob) {
				t.Fatalf("overwrite did not restore the record: %q %v", got, ok)
			}
		})
	}
}

func TestPeekBlob(t *testing.T) {
	dir := t.TempDir()
	k := Fingerprint("op")
	c := New(Options{Dir: dir})
	if c.PeekBlob(k) {
		t.Fatal("PeekBlob hit before any write")
	}
	if err := c.PutBlob(k, []byte(`{"pareto":[]}`)); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if !c.PeekBlob(k) {
		t.Fatal("PeekBlob missed an existing record")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("PeekBlob moved counters: %+v vs %+v", after, before)
	}
	if New(Options{}).PeekBlob(k) {
		t.Fatal("PeekBlob hit with the disk layer disabled")
	}
}

func TestPutBlobRejectsNonJSONPayload(t *testing.T) {
	c := New(Options{Dir: t.TempDir()})
	if err := c.PutBlob(Fingerprint("op"), []byte("not json")); err == nil {
		t.Fatal("want error for a payload the envelope cannot embed")
	}
	if st := c.Stats(); st.DiskErrors != 1 {
		t.Fatalf("stats = %+v, want 1 disk error", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Options{})
	for i := range c.shards {
		c.shards[i].cap = 4 // 64 entries: the 97 keys below evict under contention
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Fingerprint(fmt.Sprintf("k%d", i%97))
				if v, ok := c.Get(k); ok {
					if v.(int) != i%97 {
						t.Errorf("wrong value for key %d: %v", i%97, v)
						return
					}
				}
				c.Put(k, i%97)
			}
		}(g)
	}
	wg.Wait()
}
