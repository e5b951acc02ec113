// Package chaostest is the fault-injection harness for the plan
// cache's remote tier: an http.RoundTripper that tests install as
// plancache.RemoteOptions.Transport to drive the peer client through
// the failures a fleet sees. It imports nothing from plancache, so the
// plancache tests can use it too.
package chaostest

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Transport is an http.RoundTripper that wraps a real transport and
// injects the failure modes a fleet actually sees — added latency,
// stalls past the request deadline, 5xx answers, connection resets,
// and corrupted response payloads — with the whole schedule drawn from
// one seeded RNG, so a chaos run replays byte-identically under the
// same seed and request order.
//
// Each request draws a single uniform variate and lands in exactly one
// fault band (reset, then 5xx, then timeout, then latency, then
// corruption, in that fixed order) or passes through untouched;
// latency and corruption still reach the real peer. The injected
// counters let a soak assert the run actually exercised every mode.
type Transport struct {
	opts Options
	next http.RoundTripper

	mu  sync.Mutex
	rng *rand.Rand

	// injected-fault counters, for asserting chaos coverage
	Resets      atomic.Int64
	Code5xx     atomic.Int64
	Timeouts    atomic.Int64
	Latencies   atomic.Int64
	Corruptions atomic.Int64
	Passed      atomic.Int64
}

// Options configures a Transport. Probabilities are per
// request and mutually exclusive (they are cumulative bands over one
// draw); their sum must be ≤ 1.
type Options struct {
	// Seed drives the whole fault schedule; same seed + same request
	// order = same faults. 0 derives one from the clock.
	Seed int64

	// ResetProb returns a synthetic connection reset (a transport
	// error) without contacting the peer.
	ResetProb float64

	// Code5xxProb answers 503 without contacting the peer.
	Code5xxProb float64

	// TimeoutProb stalls until the request's context expires — the
	// dead-peer-with-open-socket mode, which only per-request timeouts
	// can bound.
	TimeoutProb float64

	// LatencyProb delays the request by Latency, then lets it through.
	LatencyProb float64
	Latency     time.Duration

	// CorruptProb lets the request through, then flips bytes in the
	// response body — the byzantine peer the provenance check must
	// catch.
	CorruptProb float64

	// Next is the real transport; default http.DefaultTransport.
	Next http.RoundTripper
}

// NewTransport builds the fault injector.
func NewTransport(opts Options) *Transport {
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	next := opts.Next
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{opts: opts, next: next, rng: rand.New(rand.NewSource(seed))}
}

// chaosError is the synthetic connection reset.
type chaosError struct{}

func (chaosError) Error() string   { return "chaos: connection reset by peer" }
func (chaosError) Timeout() bool   { return false }
func (chaosError) Temporary() bool { return true }

// RoundTrip draws this request's fate and executes it.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	u := t.rng.Float64()
	t.mu.Unlock()

	o := &t.opts
	switch {
	case u < o.ResetProb:
		t.Resets.Add(1)
		return nil, chaosError{}
	case u < o.ResetProb+o.Code5xxProb:
		t.Code5xx.Add(1)
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Retry-After": []string{"1"}},
			Body:    io.NopCloser(bytes.NewReader(nil)),
			Request: req,
		}, nil
	case u < o.ResetProb+o.Code5xxProb+o.TimeoutProb:
		t.Timeouts.Add(1)
		<-req.Context().Done()
		return nil, req.Context().Err()
	case u < o.ResetProb+o.Code5xxProb+o.TimeoutProb+o.LatencyProb:
		t.Latencies.Add(1)
		delay := time.NewTimer(o.Latency)
		defer delay.Stop()
		select {
		case <-delay.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.next.RoundTrip(req)
	case u < o.ResetProb+o.Code5xxProb+o.TimeoutProb+o.LatencyProb+o.CorruptProb:
		t.Corruptions.Add(1)
		resp, err := t.next.RoundTrip(req)
		if err != nil || resp.Body == nil {
			return resp, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		t.mu.Lock()
		for i := 0; i < len(body); i += 1 + t.rng.Intn(16) {
			body[i] ^= 0x5a
		}
		t.mu.Unlock()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Del("Content-Length")
		return resp, nil
	default:
		t.Passed.Add(1)
		return t.next.RoundTrip(req)
	}
}

// Injected sums every injected fault (for coverage assertions).
func (t *Transport) Injected() int64 {
	return t.Resets.Load() + t.Code5xx.Load() + t.Timeouts.Load() +
		t.Latencies.Load() + t.Corruptions.Load()
}
