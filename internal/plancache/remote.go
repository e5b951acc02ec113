package plancache

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Remote is the peer layer of the plan cache: a fleet of t10serve
// replicas sharing one warm set over a tiny HTTP surface
// (GET/PUT /plans/{fingerprint}, where the body is the sealed v5
// provenance envelope exactly as it sits on disk). It slots between
// the local disk layer and the cold search, and its whole contract is
// graceful degradation: a slow, dead or byzantine peer can never make
// a compile fail or stall — every remote failure is a counted miss
// that falls through to the cold search.
//
// Robustness machinery, per peer:
//
//   - a hard per-attempt request timeout, so a stalled peer costs a
//     bounded slice of the requesting compile's wall clock;
//   - bounded retries with jittered exponential backoff — GETs only;
//     publishes (PUTs) are fire-and-forget best-effort and never
//     retried;
//   - a circuit breaker (closed / open / half-open): a failure rate
//     over the recent-outcome window trips the peer open, a cooldown
//     later one probe request tests recovery, and only a probe success
//     closes it again. An open peer is skipped entirely — no
//     connection, no timeout paid.
//
// Trust is the caller's: Fetch hands every response body to a verify
// callback (Cache.open — the v5 provenance check), and a body that
// fails verification counts as that peer's failure exactly like a 5xx,
// so a peer serving garbage trips its breaker. The Remote itself never
// interprets record contents.
type Remote struct {
	peers   []*peer
	timeout time.Duration
	retries int
	backoff time.Duration
	backMax time.Duration
	client  *http.Client

	rngMu sync.Mutex
	rng   *rand.Rand

	next   atomic.Int64 // rotating first-peer index, spreading fetch load
	closed atomic.Bool
	wg     sync.WaitGroup
	pubSem chan struct{} // bounds concurrent publish goroutines; full = drop

	hits, misses, rejects      atomic.Int64
	publishes, publishFailures atomic.Int64
	publishDrops               atomic.Int64
}

// RemoteOptions configures a Remote: its peers, plus the two fakes
// tests substitute. The timings below are constants.
type RemoteOptions struct {
	// Peers are the base URLs of sibling replicas ("http://host:port");
	// the /plans/{fingerprint} path is appended.
	Peers []string

	// Transport overrides the HTTP transport — the fault-injection
	// hook (tests install a chaostest.Transport). Default
	// http.DefaultTransport.
	Transport http.RoundTripper

	// Seed seeds the backoff jitter; 0 derives one from the clock.
	// Fix it for reproducible schedules in tests.
	Seed int64
}

// The Remote's timings and its per-peer breaker.
const (
	// remoteTimeout bounds each individual peer request.
	remoteTimeout = 500 * time.Millisecond
	// remoteRetries is how many extra GET attempts a transiently
	// failing peer gets before the fetch moves on. PUTs never retry.
	remoteRetries = 1
	// backoffBase and backoffMax bound the jittered exponential
	// backoff between GET retries.
	backoffBase = 20 * time.Millisecond
	backoffMax  = 200 * time.Millisecond

	// breakerWindow is how many recent request outcomes the failure
	// rate is computed over.
	breakerWindow = 16
	// breakerMinSamples is the minimum outcomes in the window before
	// the breaker may trip — one early failure must not blacklist a
	// peer.
	breakerMinSamples = 4
	// breakerRate is the failure rate in [0,1] that trips the breaker.
	breakerRate = 0.5
	// breakerCooldown is how long a tripped peer stays open before
	// half-open lets one probe through.
	breakerCooldown = 2 * time.Second
)

// MaxRecordBytes caps a sealed record on the wire, in both directions:
// how much of a peer's response body a fetch will read (a byzantine
// peer must not balloon the client's memory) and how large a PUT body
// the serve side accepts.
const MaxRecordBytes = 8 << 20

// publishWorkers bounds concurrent fire-and-forget publish goroutines;
// beyond it publishes are dropped (and counted), never queued — losing
// a best-effort push is cheaper than unbounded goroutines under a cold
// burst.
const publishWorkers = 8

// NewRemote builds a Remote over the given peers.
func NewRemote(opts RemoteOptions) *Remote {
	tr := opts.Transport
	if tr == nil {
		tr = http.DefaultTransport
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r := &Remote{
		timeout: remoteTimeout,
		retries: remoteRetries,
		backoff: backoffBase,
		backMax: backoffMax,
		client:  &http.Client{Transport: tr},
		rng:     rand.New(rand.NewSource(seed)),
		pubSem:  make(chan struct{}, publishWorkers),
	}
	for _, u := range opts.Peers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		r.peers = append(r.peers, &peer{url: u, br: newBreaker()})
	}
	return r
}

// Peers returns the configured peer base URLs (for logs and stats).
func (r *Remote) Peers() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.peers))
	for i, p := range r.peers {
		out[i] = p.url
	}
	return out
}

// fetch outcome classes; see fetchOnce.
type outcome int

const (
	outcomeHit    outcome = iota // 200 with a verified record
	outcomeMiss                  // clean 404: healthy peer, no record
	outcomeReject                // 200 whose body failed verification
	outcomeFail                  // transport error, timeout, non-200/404
)

// Fetch asks the peers for the record, in rotating order, skipping
// peers whose breaker is open. Each peer gets a bounded number of
// attempts (retries apply to transient failures only) under the
// per-attempt timeout; a 200 body must pass verify — the provenance
// check — or it counts as that peer's failure. Returns the raw sealed
// record plus verify's payload on the first verified hit; (nil, nil,
// false) — never an error — when no peer could answer. Cancelling ctx
// stops the fetch at the next attempt boundary.
func (r *Remote) Fetch(ctx context.Context, k Key, verify func([]byte) ([]byte, bool)) (raw, payload []byte, ok bool) {
	if r == nil || len(r.peers) == 0 || ctx.Err() != nil {
		return nil, nil, false
	}
	start := int(r.next.Add(1)-1) % len(r.peers)
	for i := 0; i < len(r.peers) && ctx.Err() == nil; i++ {
		p := r.peers[(start+i)%len(r.peers)]
		raw, payload, out := r.fetchPeer(ctx, p, k, verify)
		if out == outcomeHit {
			p.hits.Add(1)
			r.hits.Add(1)
			return raw, payload, true
		}
	}
	r.misses.Add(1)
	return nil, nil, false
}

// fetchPeer runs the per-peer attempt loop: ask the breaker before
// every attempt, record every attempt's outcome into it, retry (with
// jittered exponential backoff) only transient failures.
func (r *Remote) fetchPeer(ctx context.Context, p *peer, k Key, verify func([]byte) ([]byte, bool)) (raw, payload []byte, out outcome) {
	for attempt := 0; attempt <= r.retries; attempt++ {
		if ctx.Err() != nil {
			return nil, nil, outcomeFail
		}
		if !p.br.allow(time.Now()) {
			return nil, nil, outcomeFail
		}
		raw, payload, out = r.fetchOnce(ctx, p, k, verify)
		p.br.record(time.Now(), out == outcomeHit || out == outcomeMiss)
		switch out {
		case outcomeHit:
			return raw, payload, out
		case outcomeMiss:
			p.misses.Add(1)
			return nil, nil, out
		case outcomeReject:
			// a verification failure is deterministic for this body —
			// retrying buys nothing; counted here and on the aggregate so
			// an operator can tell "cold fleet" from "poisoned peer"
			p.rejects.Add(1)
			r.rejects.Add(1)
			return nil, nil, out
		case outcomeFail:
			p.failures.Add(1)
			if attempt < r.retries && !r.sleep(ctx, r.backoffFor(attempt)) {
				return nil, nil, out
			}
		}
	}
	return nil, nil, out
}

// fetchOnce is a single GET under the per-attempt timeout.
func (r *Remote) fetchOnce(ctx context.Context, p *peer, k Key, verify func([]byte) ([]byte, bool)) ([]byte, []byte, outcome) {
	actx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, p.url+"/plans/"+k.String(), nil)
	if err != nil {
		return nil, nil, outcomeFail
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, outcomeFail
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, nil, outcomeMiss
	default:
		// 429/503 from an overloaded peer are failures too: the breaker
		// backing off is exactly the load shedding the peer asked for
		return nil, nil, outcomeFail
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxRecordBytes+1))
	if err != nil {
		return nil, nil, outcomeFail
	}
	if len(raw) > MaxRecordBytes {
		return nil, nil, outcomeReject
	}
	payload, ok := verify(raw)
	if !ok {
		return nil, nil, outcomeReject
	}
	return raw, payload, outcomeHit
}

// Publish pushes a sealed record to every reachable peer,
// fire-and-forget: one background goroutine, one PUT attempt per peer
// (no retries), open-breaker peers skipped, failures counted and
// forgotten. When the bounded publisher pool is saturated the publish
// is dropped (and counted) rather than queued — the record is still on
// local disk, and peers can always pull it.
func (r *Remote) Publish(k Key, sealed []byte) {
	if r == nil || len(r.peers) == 0 || r.closed.Load() {
		return
	}
	select {
	case r.pubSem <- struct{}{}:
	default:
		r.publishDrops.Add(1)
		return
	}
	r.wg.Add(1)
	go func() {
		defer func() { <-r.pubSem; r.wg.Done() }()
		for _, p := range r.peers {
			if !p.br.allow(time.Now()) {
				continue
			}
			ok := r.putOnce(p, k, sealed)
			p.br.record(time.Now(), ok)
			if ok {
				r.publishes.Add(1)
			} else {
				p.failures.Add(1)
				r.publishFailures.Add(1)
			}
		}
	}()
}

// putOnce is a single best-effort PUT under the per-attempt timeout.
func (r *Remote) putOnce(p *peer, k Key, sealed []byte) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.url+"/plans/"+k.String(), strings.NewReader(string(sealed)))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode < 300
}

// Close stops accepting publishes and waits for in-flight ones — the
// graceful-drain hook. Fetches are unaffected (they are synchronous
// and owned by their request contexts).
func (r *Remote) Close() {
	if r == nil {
		return
	}
	r.closed.Store(true)
	r.wg.Wait()
}

// backoffFor computes the jittered exponential backoff before retry
// attempt+1: base·2^attempt clamped to the max, then uniformly drawn
// from [d/2, d] so a fleet of retriers never thunders in lockstep.
func (r *Remote) backoffFor(attempt int) time.Duration {
	d := r.backoff << uint(attempt)
	if d > r.backMax || d <= 0 {
		d = r.backMax
	}
	r.rngMu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d/2) + 1))
	r.rngMu.Unlock()
	return d/2 + j
}

// sleep waits d or until ctx dies; reports whether the full wait
// happened.
func (r *Remote) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// RemoteStats is a point-in-time snapshot of the remote tier.
type RemoteStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"` // fetches no peer could answer
	Rejects int64 `json:"rejects"`

	Publishes       int64 `json:"publishes"`
	PublishFailures int64 `json:"publish_failures"`
	PublishDrops    int64 `json:"publish_drops"`

	Peers []PeerStats `json:"peers"`
}

// PeerStats is one peer's health ledger.
type PeerStats struct {
	URL      string `json:"url"`
	State    string `json:"state"` // closed | open | half-open
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
	Rejects  int64  `json:"rejects"`
	Failures int64  `json:"failures"`
	Trips    int64  `json:"trips"`
}

// Stats snapshots the counters and every peer's breaker state.
func (r *Remote) Stats() RemoteStats {
	if r == nil {
		return RemoteStats{}
	}
	st := RemoteStats{
		Hits:            r.hits.Load(),
		Misses:          r.misses.Load(),
		Rejects:         r.rejects.Load(),
		Publishes:       r.publishes.Load(),
		PublishFailures: r.publishFailures.Load(),
		PublishDrops:    r.publishDrops.Load(),
	}
	for _, p := range r.peers {
		st.Peers = append(st.Peers, PeerStats{
			URL:      p.url,
			State:    p.br.stateName(time.Now()),
			Hits:     p.hits.Load(),
			Misses:   p.misses.Load(),
			Rejects:  p.rejects.Load(),
			Failures: p.failures.Load(),
			Trips:    p.br.tripCount(),
		})
	}
	return st
}

// peer is one replica plus its health ledger.
type peer struct {
	url string
	br  *breaker

	hits, misses, rejects, failures atomic.Int64
}

// --- circuit breaker ---

type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

// breaker is a per-peer circuit breaker: closed counts outcomes over a
// sliding window and trips open when the failure rate clears the
// threshold; open rejects everything until the cooldown elapses; then
// half-open admits exactly one probe, whose outcome decides between
// closing (and a clean window) and re-opening (a fresh cooldown).
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	window   []bool // ring of recent outcomes, true = success
	next     int
	n        int
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	trips    atomic.Int64
}

func newBreaker() *breaker {
	return &breaker{window: make([]bool, breakerWindow)}
}

// allow reports whether a request may go to this peer now, advancing
// open→half-open when the cooldown has elapsed. In half-open only one
// probe is admitted at a time.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if now.Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = stateHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record folds one outcome in. Closed: slide the window and trip when
// the failure rate clears the threshold (with enough samples). Half-
// open: the probe's outcome closes or re-opens the breaker.
func (b *breaker) record(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		if b.n == len(b.window) && !b.window[b.next] {
			b.fails--
		}
		b.window[b.next] = ok
		b.next = (b.next + 1) % len(b.window)
		if b.n < len(b.window) {
			b.n++
		}
		if !ok {
			b.fails++
		}
		if b.n >= breakerMinSamples && float64(b.fails) >= breakerRate*float64(b.n) {
			b.trip(now)
		}
	case stateHalfOpen:
		b.probing = false
		if ok {
			b.state = stateClosed
			b.reset()
		} else {
			b.trip(now)
		}
	case stateOpen:
		// a late outcome from before the trip; the window is already
		// clear and the cooldown running — nothing to fold
	}
}

// trip opens the breaker and clears the window (callers hold b.mu).
func (b *breaker) trip(now time.Time) {
	b.state = stateOpen
	b.openedAt = now
	b.probing = false
	b.trips.Add(1)
	b.reset()
}

func (b *breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.next, b.n, b.fails = 0, 0, 0
}

// stateName renders the state for stats, reporting "half-open" for an
// open breaker whose cooldown has elapsed (the next allow will probe).
func (b *breaker) stateName(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return "closed"
	case stateHalfOpen:
		return "half-open"
	default:
		if now.Sub(b.openedAt) >= breakerCooldown {
			return "half-open"
		}
		return "open"
	}
}

func (b *breaker) tripCount() int64 { return b.trips.Load() }

// String renders a compact fleet summary for logs.
func (r *Remote) String() string {
	if r == nil {
		return "remote(off)"
	}
	return fmt.Sprintf("remote(%d peers, timeout %v, retries %d)", len(r.peers), r.timeout, r.retries)
}
