package plancache

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plancache/chaostest"
)

// chaosSeed is the reproducible fault schedule: T10_CHAOS_SEED when set
// (the `make chaos` knob — rerun a failing soak byte-identically), a
// fixed default otherwise.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("T10_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("T10_CHAOS_SEED=%q: %v", s, err)
		}
		t.Logf("chaos seed %d (from T10_CHAOS_SEED)", n)
		return n
	}
	return 20240807
}

// fastRemote returns a Remote tuned for tests: short timeouts and
// backoff, fixed seed. The breaker runs on its constants.
func fastRemote(peers ...string) *Remote {
	r := NewRemote(RemoteOptions{Peers: peers, Seed: 1})
	r.timeout = 200 * time.Millisecond
	r.backoff, r.backMax = time.Millisecond, 4*time.Millisecond
	return r
}

// servePlans exposes a cache's disk layer over the /plans GET surface,
// the way t10serve does, plus a request counter.
func servePlans(t *testing.T, c *Cache) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		k, ok := ParseKey(strings.TrimPrefix(r.URL.Path, "/plans/"))
		if !ok {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		raw, ok := c.RawBlob(k)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Write(raw)
	}))
	t.Cleanup(ts.Close)
	return ts, &gets
}

func TestRemoteFetchVerifiesAndWritesThrough(t *testing.T) {
	salt := []byte("fleet-secret")
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[{"fop":[16,1,32]}]}`)

	peerCache := New(Options{Dir: t.TempDir(), Salt: salt})
	if err := peerCache.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	ts, _ := servePlans(t, peerCache)

	local := New(Options{Dir: t.TempDir(), Salt: salt})
	local.SetRemote(fastRemote(ts.URL))
	defer local.Remote().Close()

	payload, ok := local.GetRemote(context.Background(), k)
	if !ok || string(payload) != string(blob) {
		t.Fatalf("GetRemote = %q, %v; want the peer's payload", payload, ok)
	}
	st := local.Stats()
	if st.RemoteHits != 1 || st.RemoteMisses != 0 || st.RemoteRejects != 0 {
		t.Fatalf("stats = %+v, want exactly one remote hit", st)
	}

	// write-through: the record is now on local disk, so a fresh process
	// over the same dir answers from disk without any peer
	ts.Close()
	restarted := New(Options{Dir: local.dir, Salt: salt})
	if got, ok := restarted.GetBlob(k); !ok || string(got) != string(blob) {
		t.Fatalf("write-through record not readable from disk: %q %v", got, ok)
	}
}

func TestRemoteMissesAreCleanAndCounted(t *testing.T) {
	peerCache := New(Options{Dir: t.TempDir()})
	ts, gets := servePlans(t, peerCache) // healthy peer, empty store

	local := New(Options{Dir: t.TempDir()})
	local.SetRemote(fastRemote(ts.URL))
	defer local.Remote().Close()

	if _, ok := local.GetRemote(context.Background(), Fingerprint("nope")); ok {
		t.Fatal("hit on an empty fleet")
	}
	if st := local.Stats(); st.RemoteMisses != 1 {
		t.Fatalf("stats = %+v, want one remote miss", st)
	}
	// a clean 404 is not transient: no retry burned on it
	if n := gets.Load(); n != 1 {
		t.Fatalf("404 was retried: %d requests", n)
	}
	// a healthy peer answering 404s keeps its breaker closed
	if ps := local.Remote().Stats().Peers[0]; ps.State != "closed" || ps.Misses != 1 {
		t.Fatalf("peer stats = %+v, want closed with one miss", ps)
	}
}

func TestRemoteDeadPeerDegradesToMiss(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close() // nothing listening: every dial fails

	local := New(Options{Dir: t.TempDir()})
	local.SetRemote(fastRemote(url))
	defer local.Remote().Close()

	for i := 0; i < 3; i++ {
		if _, ok := local.GetRemote(context.Background(), Fingerprint("op")); ok {
			t.Fatal("hit from a dead peer")
		}
	}
	st := local.Remote().Stats()
	if st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 3 clean misses", st)
	}
	// enough consecutive failures must have tripped the breaker
	if ps := st.Peers[0]; ps.Failures == 0 || ps.Trips == 0 {
		t.Fatalf("peer stats = %+v, want failures and a breaker trip", ps)
	}
}

func TestRemoteGarbageServingPeerIsRejectedAndTripped(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"v":1,"builder":"evil","key":"","payload":{}}`))
	}))
	t.Cleanup(garbage.Close)

	local := New(Options{Dir: t.TempDir(), Salt: []byte("real-secret")})
	local.SetRemote(fastRemote(garbage.URL))
	defer local.Remote().Close()

	var rejected int64
	for i := 0; i < 4; i++ {
		if _, ok := local.GetRemote(context.Background(), Fingerprint("op")); ok {
			t.Fatal("a garbage record passed verification")
		}
	}
	st := local.Remote().Stats()
	rejected = st.Rejects
	if rejected == 0 {
		t.Fatalf("stats = %+v, want rejects counted", st)
	}
	// a peer serving unverifiable records is as bad as one serving 5xx:
	// its breaker must trip (further fetches stop asking it at all)
	ps := st.Peers[0]
	if ps.Trips == 0 {
		t.Fatalf("peer stats = %+v, want the breaker tripped by rejects", ps)
	}
	if ps.State == "closed" {
		t.Fatalf("peer state %q after garbage, want open/half-open", ps.State)
	}
	// rejected fetches surface as misses on the cache-level stats
	if cst := local.Stats(); cst.RemoteRejects != rejected {
		t.Fatalf("cache stats = %+v, want %d remote rejects", cst, rejected)
	}
}

func TestRemoteForeignSaltIsRejected(t *testing.T) {
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[]}`)
	// the peer seals under deployment B's salt
	peerCache := New(Options{Dir: t.TempDir(), Salt: []byte("deployment-b")})
	if err := peerCache.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	ts, _ := servePlans(t, peerCache)

	local := New(Options{Dir: t.TempDir(), Salt: []byte("deployment-a")})
	local.SetRemote(fastRemote(ts.URL))
	defer local.Remote().Close()

	if _, ok := local.GetRemote(context.Background(), k); ok {
		t.Fatal("record sealed under a foreign salt passed verification")
	}
	if st := local.Remote().Stats(); st.Rejects != 1 {
		t.Fatalf("stats = %+v, want the foreign record rejected", st)
	}
}

func TestRemoteRetriesTransientFailureThenSucceeds(t *testing.T) {
	salt := []byte("s")
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[]}`)
	peerCache := New(Options{Dir: t.TempDir(), Salt: salt})
	if err := peerCache.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	raw, _ := peerCache.RawBlob(k)

	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		w.Write(raw)
	}))
	t.Cleanup(flaky.Close)

	local := New(Options{Dir: t.TempDir(), Salt: salt})
	local.SetRemote(fastRemote(flaky.URL))
	defer local.Remote().Close()

	payload, ok := local.GetRemote(context.Background(), k)
	if !ok || string(payload) != string(blob) {
		t.Fatalf("GetRemote = %q, %v; want success on the retry", payload, ok)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d attempts, want exactly 2 (one failure, one retry)", n)
	}
}

func TestRemoteStalledPeerIsBoundedByTimeout(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); stalled.Close() })

	r := fastRemote(stalled.URL)
	r.timeout, r.retries = 50*time.Millisecond, 0
	local := New(Options{Dir: t.TempDir()})
	local.SetRemote(r)
	defer local.Remote().Close()

	start := time.Now()
	if _, ok := local.GetRemote(context.Background(), Fingerprint("op")); ok {
		t.Fatal("hit from a stalled peer")
	}
	// one attempt, no retry: the wall cost is roughly one timeout, and
	// the generous bound proves it cannot be the peer's (infinite) stall
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stalled peer cost %v of wall clock; timeout is not bounding it", d)
	}
}

func TestRemoteFetchHonorsCallerContext(t *testing.T) {
	local := New(Options{Dir: t.TempDir()})
	local.SetRemote(fastRemote("http://127.0.0.1:1"))
	defer local.Remote().Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := local.GetRemote(ctx, Fingerprint("op")); ok {
		t.Fatal("hit under a cancelled context")
	}
}

func TestPublishWarmsAcceptingPeer(t *testing.T) {
	salt := []byte("s")
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[]}`)

	// the receiving replica: verifies and stores pushed records
	sink := New(Options{Dir: t.TempDir(), Salt: salt})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			http.Error(w, "method", http.StatusMethodNotAllowed)
			return
		}
		k, ok := ParseKey(strings.TrimPrefix(r.URL.Path, "/plans/"))
		if !ok {
			http.Error(w, "key", http.StatusBadRequest)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := sink.ImportBlob(k, body); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(ts.Close)

	src := New(Options{Dir: t.TempDir(), Salt: salt})
	src.SetRemote(fastRemote(ts.URL))
	if err := src.PutBlob(k, blob); err != nil {
		t.Fatal(err)
	}
	src.Remote().Close() // drains the in-flight publish

	if st := src.Remote().Stats(); st.Publishes != 1 || st.PublishFailures != 0 {
		t.Fatalf("stats = %+v, want one clean publish", st)
	}
	if got, ok := sink.GetBlob(k); !ok || string(got) != string(blob) {
		t.Fatalf("pushed record not in the sink: %q %v", got, ok)
	}
}

func TestPublishToDeadPeerIsForgotten(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()

	src := New(Options{Dir: t.TempDir()})
	src.SetRemote(fastRemote(url))
	if err := src.PutBlob(Fingerprint("op"), []byte(`{"x":1}`)); err != nil {
		t.Fatalf("a dead peer must never fail PutBlob: %v", err)
	}
	src.Remote().Close()
	if st := src.Remote().Stats(); st.PublishFailures != 1 {
		t.Fatalf("stats = %+v, want the failed publish counted", st)
	}
}

func TestPublishAfterCloseIsDropped(t *testing.T) {
	r := fastRemote("http://127.0.0.1:1")
	r.Close()
	r.Publish(Fingerprint("op"), []byte("x")) // must not spawn work or panic
}

func TestImportBlobRejectionClasses(t *testing.T) {
	salt := []byte("fleet-secret")
	k := Fingerprint("op")
	blob := []byte(`{"pareto":[]}`)
	sealedBy := func(o Options) []byte {
		w := New(o)
		if err := w.PutBlob(k, blob); err != nil {
			t.Fatal(err)
		}
		raw, _ := w.RawBlob(k)
		return raw
	}
	good := sealedBy(Options{Dir: t.TempDir(), Salt: salt})

	c := New(Options{Dir: t.TempDir(), Salt: salt})
	cases := []struct {
		name string
		raw  []byte
		err  error
	}{
		{"valid", good, nil},
		{"garbage", []byte("not json"), ErrImportRejected},
		{"tampered", []byte(strings.Replace(string(good), `"pareto"`, `"pwneto"`, 1)), ErrImportRejected},
		{"foreign salt", sealedBy(Options{Dir: t.TempDir(), Salt: []byte("other")}), ErrImportRejected},
		{"stale builder", sealedBy(Options{Dir: t.TempDir(), Salt: salt, Builder: "t10-builder/4"}), ErrImportRejected},
	}
	var wantRejects int64
	for _, tc := range cases {
		if err := c.ImportBlob(k, tc.raw); err != tc.err {
			t.Errorf("%s: ImportBlob = %v, want %v", tc.name, err, tc.err)
		}
		if tc.err != nil {
			wantRejects++
		}
	}
	if st := c.Stats(); st.ImportRejects != wantRejects {
		t.Fatalf("stats = %+v, want %d import rejects", st, wantRejects)
	}
	// the store still holds the one valid record, untouched by rejects
	if got, ok := c.GetBlob(k); !ok || string(got) != string(blob) {
		t.Fatalf("store corrupted by rejected imports: %q %v", got, ok)
	}

	diskless := New(Options{})
	if err := diskless.ImportBlob(k, good); err != ErrImportDisabled {
		t.Fatalf("diskless ImportBlob = %v, want ErrImportDisabled", err)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	clk := time.Unix(0, 0)
	b := newBreaker()

	// healthy traffic keeps it closed
	for i := 0; i < breakerMinSamples; i++ {
		if !b.allow(clk) {
			t.Fatal("closed breaker refused a request")
		}
		b.record(clk, true)
	}
	if got := b.stateName(clk); got != "closed" {
		t.Fatalf("state = %q, want closed", got)
	}

	// failures reaching the rate trip it, not one before
	for i := 0; i < breakerMinSamples; i++ {
		if got := b.stateName(clk); got != "closed" {
			t.Fatalf("state after %d of %d failures = %q, want closed", i, breakerMinSamples, got)
		}
		b.record(clk, false)
	}
	if got := b.stateName(clk); got != "open" {
		t.Fatalf("state after failures = %q, want open", got)
	}
	if b.tripCount() != 1 {
		t.Fatalf("trips = %d, want 1", b.tripCount())
	}
	if b.allow(clk) {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	// cooldown elapses: exactly one probe gets through
	clk = clk.Add(breakerCooldown)
	if !b.allow(clk) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.allow(clk) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// probe failure re-opens with a fresh cooldown
	b.record(clk, false)
	if got := b.stateName(clk); got != "open" {
		t.Fatalf("state after failed probe = %q, want open", got)
	}
	if b.allow(clk.Add(breakerCooldown / 2)) {
		t.Fatal("re-opened breaker ignored its fresh cooldown")
	}

	// next cooldown, successful probe closes it cleanly
	clk = clk.Add(breakerCooldown)
	if !b.allow(clk) {
		t.Fatal("probe refused after second cooldown")
	}
	b.record(clk, true)
	if got := b.stateName(clk); got != "closed" {
		t.Fatalf("state after successful probe = %q, want closed", got)
	}
	// the window restarted: one old-style failure must not insta-trip
	if !b.allow(clk) {
		t.Fatal("closed breaker refused a request after recovery")
	}
	b.record(clk, false)
	if got := b.stateName(clk); got != "closed" {
		t.Fatalf("state = %q; a single failure after recovery must not trip", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	r := NewRemote(RemoteOptions{Peers: []string{"http://x"}, Seed: 42})
	for attempt := 0; attempt < 6; attempt++ {
		want := min(backoffBase<<uint(attempt), backoffMax)
		for i := 0; i < 100; i++ {
			d := r.backoffFor(attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

func TestBackoffSeedReproducible(t *testing.T) {
	mk := func() []time.Duration {
		r := NewRemote(RemoteOptions{Peers: []string{"http://x"}, Seed: 7})
		var out []time.Duration
		for i := 0; i < 20; i++ {
			out = append(out, r.backoffFor(i%3))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestChaosCorruptionIsCaughtByVerification(t *testing.T) {
	salt := []byte("s")
	k := Fingerprint("op")
	peerCache := New(Options{Dir: t.TempDir(), Salt: salt})
	if err := peerCache.PutBlob(k, []byte(`{"pareto":[{"fop":[16,1,32]}]}`)); err != nil {
		t.Fatal(err)
	}
	ts, _ := servePlans(t, peerCache)

	r := NewRemote(RemoteOptions{
		Peers:     []string{ts.URL},
		Transport: chaostest.NewTransport(chaostest.Options{Seed: 3, CorruptProb: 1}),
		Seed:      1,
	})
	r.timeout = 200 * time.Millisecond
	local := New(Options{Dir: t.TempDir(), Salt: salt})
	local.SetRemote(r)
	defer local.Remote().Close()

	for i := 0; i < 3; i++ {
		if _, ok := local.GetRemote(context.Background(), k); ok {
			t.Fatal("a corrupted record passed provenance verification")
		}
	}
	if st := local.Remote().Stats(); st.Rejects == 0 {
		t.Fatalf("stats = %+v, want corrupted responses rejected", st)
	}
	// and nothing corrupted was written through to local disk
	if _, ok := local.GetBlob(k); ok {
		t.Fatal("a corrupted record reached the local disk layer")
	}
}

func TestChaosSoakRemoteNeverErrorsNeverHangs(t *testing.T) {
	salt := []byte("s")
	peerCache := New(Options{Dir: t.TempDir(), Salt: salt})
	var keys []Key
	for i := 0; i < 8; i++ {
		k := Fingerprint(fmt.Sprintf("op-%d", i))
		keys = append(keys, k)
		if err := peerCache.PutBlob(k, []byte(fmt.Sprintf(`{"pareto":[{"fop":[%d,1,1]}]}`, i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := servePlans(t, peerCache)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	chaos := chaostest.NewTransport(chaostest.Options{
		Seed: chaosSeed(t), ResetProb: 0.15, Code5xxProb: 0.15, TimeoutProb: 0.1,
		LatencyProb: 0.1, Latency: 2 * time.Millisecond, CorruptProb: 0.15,
	})
	r := NewRemote(RemoteOptions{Peers: []string{ts.URL, deadURL}, Transport: chaos, Seed: 1})
	r.timeout = 30 * time.Millisecond
	r.backoff, r.backMax = time.Millisecond, 4*time.Millisecond
	local := New(Options{Dir: t.TempDir(), Salt: salt})
	local.SetRemote(r)
	defer local.Remote().Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			k := keys[i%len(keys)]
			payload, ok := local.GetRemote(context.Background(), k)
			if ok && len(payload) == 0 {
				t.Error("hit with an empty payload")
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("soak hung: a chaos fault stalled GetRemote past every timeout")
	}
	if chaos.Injected() == 0 {
		t.Fatal("chaos injected nothing; the soak proved nothing")
	}
	st := local.Remote().Stats()
	if st.Hits+st.Misses != 300 {
		t.Fatalf("stats = %+v: hits+misses = %d, want every fetch accounted as hit or clean miss", st, st.Hits+st.Misses)
	}
}
