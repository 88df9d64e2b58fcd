package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssync/internal/obs"
)

// Key is a request's affinity key: the engine's content address when
// the wire body parses (so the router hashes exactly what the replicas
// cache), the body hash otherwise.
type Key = [sha256.Size]byte

// KeyFunc computes the affinity key for one proxied request. ok=false
// means the request could not be keyed (unparseable body, non-compile
// route); the router falls back to hashing the raw body, which still
// routes identical retries and repeated requests to one shard.
type KeyFunc func(method, path string, body []byte) (Key, bool)

// Options configures a Router.
type Options struct {
	// Replicas are the replica base URLs ("http://replica1:8484", ...).
	// At least one is required; order is significant only as the stable
	// identity that places shards on the hash ring.
	Replicas []string
	// KeyFn computes request affinity keys; nil uses the body hash for
	// everything (affinity still works, but requests that differ only in
	// JSON formatting stop coalescing). cmd/ssyncd wires the engine's
	// key computation here.
	KeyFn KeyFunc
	// Logger receives router event logs; nil discards.
	Logger *slog.Logger
	// Registry, when non-nil, receives the ssync_cluster_* metric
	// families (per-shard requests/spills/errors/state, proxy latency).
	Registry *obs.Registry
	// HealthInterval is the per-shard /v2/stats poll cadence (default
	// 1s); HealthTimeout bounds one probe (default 2s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// DownAfter is the consecutive probe failures that mark a shard down
	// (default 2).
	DownAfter int
	// SpillDepthFraction: a replica whose admission-queue depth for any
	// class reaches this fraction of the class bound counts as shedding,
	// and new home traffic spills to its second-choice shard (default
	// 0.8).
	SpillDepthFraction float64
	// VNodes is the virtual-node count per shard on the hash ring
	// (default 64).
	VNodes int
	// MaxBodyBytes bounds a proxied request body (default 8 MiB,
	// matching the replicas' own bound) and a buffered response body
	// (at 4× that).
	MaxBodyBytes int64
	// Transport overrides the forwarding transport (tests); nil uses
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Recorder, when non-nil, makes the router serve GET /v2/traces
	// itself: list from its own flight recorder, and single-trace
	// lookups stitched fleet-wide — the router fans the lookup out to
	// every replica and merges remote spans (re-based onto its own
	// origin, tagged with the replica URL) into its span tree. Nil
	// proxies the trace routes like any other GET.
	Recorder *obs.Recorder
}

// Router is the consistent-hash reverse proxy in front of a replica
// fleet. It is an http.Handler; Close stops the health pollers.
type Router struct {
	shards []*shard
	ring   *ring
	client *http.Client
	log    *slog.Logger
	keyFn  KeyFunc
	rec    *obs.Recorder

	healthInterval     time.Duration
	healthTimeout      time.Duration
	downAfter          int
	spillDepthFraction float64
	maxBody            int64

	metrics *routerMetrics // nil when no registry was attached

	// keyMemo caches body-hash → affinity-key so a repeated identical
	// request — the cache-hit traffic the router exists to co-locate —
	// skips re-parsing and re-keying the body. Bounded at keyMemoMax;
	// safe because the affinity key is a pure function of
	// (method, path, body).
	keyMu   sync.Mutex
	keyMemo map[Key]Key

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// keyMemoMax bounds the router's body-hash → key memo; at 32+32 bytes a
// full memo is ~256 KiB. Overflow drops the whole map — the memo is a
// pure cache and repopulates at one KeyFn call per distinct body.
const keyMemoMax = 4096

// New builds a router over the given replicas and starts its health
// pollers (shards start optimistically Up; the first probe corrects
// that within one HealthInterval). Callers own Close.
func New(opt Options) (*Router, error) {
	if len(opt.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	names := make([]string, len(opt.Replicas))
	for i, u := range opt.Replicas {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("cluster: replica %q is not an http(s) URL", opt.Replicas[i])
		}
		names[i] = u
	}
	r := &Router{
		ring:               newRing(names, opt.VNodes),
		client:             &http.Client{Transport: opt.Transport},
		log:                opt.Logger,
		keyFn:              opt.KeyFn,
		rec:                opt.Recorder,
		healthInterval:     opt.HealthInterval,
		healthTimeout:      opt.HealthTimeout,
		downAfter:          opt.DownAfter,
		spillDepthFraction: opt.SpillDepthFraction,
		keyMemo:            make(map[Key]Key),
		maxBody:            opt.MaxBodyBytes,
	}
	if r.log == nil {
		r.log = slog.New(slog.DiscardHandler)
	}
	if r.healthInterval <= 0 {
		r.healthInterval = time.Second
	}
	if r.healthTimeout <= 0 {
		r.healthTimeout = 2 * time.Second
	}
	if r.downAfter <= 0 {
		r.downAfter = 2
	}
	if r.spillDepthFraction <= 0 {
		r.spillDepthFraction = 0.8
	}
	if r.maxBody <= 0 {
		r.maxBody = 8 << 20
	}
	for _, u := range names {
		s := &shard{url: u}
		s.state.Store(StateUp)
		r.shards = append(r.shards, s)
	}
	if opt.Registry != nil {
		r.metrics = newRouterMetrics(opt.Registry, r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for _, s := range r.shards {
		r.wg.Add(1)
		go r.pollShard(ctx, s)
	}
	return r, nil
}

// Close stops the health pollers and waits for them to exit.
func (r *Router) Close() {
	r.cancel()
	r.wg.Wait()
}

// clusterRoutes is the label allowlist for the proxy latency histogram;
// unknown paths collapse into "other" so path scans cannot mint label
// cardinality.
var clusterRoutes = map[string]bool{
	"/v2/compile": true, "/v2/batch": true, "/v2/compilers": true,
	"/v2/passes": true, "/v2/stats": true, "/v2/traces": true,
}

func clusterRouteLabel(path string) string {
	if clusterRoutes[path] {
		return path
	}
	if strings.HasPrefix(path, "/v2/traces/") {
		return "/v2/traces/{id}"
	}
	return "other"
}

// hop-by-hop headers are connection-scoped and must not be forwarded.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// ServeHTTP proxies one request to its home shard, spilling along the
// ring when the home is down or shedding, and retrying the next shard
// on transport-level failures (never on a delivered response — a
// replica's 429/503 is a semantic answer, not a router problem).
// Compile requests are content-addressed and side-effect-free, which is
// what makes blind retry safe.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.URL.Path {
	case "/cluster/stats":
		r.handleStats(w, req)
		return
	case "/metrics":
		if r.metrics != nil {
			r.metrics.reg.ServeHTTP(w, req)
			return
		}
		http.Error(w, "no metrics registry attached", http.StatusNotFound)
		return
	case "/v2/traces":
		// With a recorder attached the router answers the trace API
		// itself; without one the routes proxy through like any GET.
		if r.rec != nil && req.Method == http.MethodGet {
			r.handleTracesList(w, req)
			return
		}
	}
	if id, ok := strings.CutPrefix(req.URL.Path, "/v2/traces/"); ok && r.rec != nil && req.Method == http.MethodGet {
		r.handleTraceGet(w, req, id)
		return
	}

	start := time.Now()
	route := clusterRouteLabel(req.URL.Path)
	tr := obs.TraceFrom(req.Context())

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.maxBody))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "request body too large or unreadable")
		return
	}

	keyStart := time.Now()
	key := r.affinityKey(req.Method, req.URL.Path, body)
	tr.Child(obs.SpanID(req.Context()), "cluster.key", keyStart, time.Since(keyStart))

	// The client's correlation ID travels to the replica (and back on the
	// response the replica writes); the trace edge usually minted one
	// into the context already, so router and replica log lines share it.
	reqID := obs.RequestID(req.Context())
	if reqID == "" {
		reqID = req.Header.Get("X-Request-ID")
	}
	if reqID == "" {
		reqID = obs.NewRequestID()
	}

	resp, shardIdx, spillReason, err := r.forward(req, body, key, reqID)
	elapsed := time.Since(start)
	if r.metrics != nil {
		r.metrics.proxyDur.Observe(elapsed.Seconds(), route)
	}
	if err != nil {
		w.Header().Set("X-Request-ID", reqID)
		httpError(w, http.StatusBadGateway, err.Error())
		r.log.Warn("cluster: all shards failed", "path", req.URL.Path, "request_id", reqID, "err", err)
		return
	}
	s := r.shards[shardIdx]
	s.requests.Add(1)
	if spillReason != "" {
		s.spills.Add(1)
		if r.metrics != nil {
			r.metrics.spills.With(s.url, spillReason).Inc()
		}
	}
	if r.metrics != nil {
		r.metrics.requests.With(s.url).Inc()
	}

	for k, vv := range resp.header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	if w.Header().Get("X-Request-ID") == "" {
		w.Header().Set("X-Request-ID", reqID)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)

	r.log.Debug("cluster: proxied", "path", req.URL.Path, "shard", s.url,
		"status", resp.status, "spill", spillReason,
		"dur_ms", float64(elapsed)/float64(time.Millisecond), "request_id", reqID)
}

// affinityKey computes the request's placement key: the engine cache
// key when the request parses — identical circuits land on the same
// replica and keep coalescing — with the hash of (method, path, body)
// as the fallback for everything else. Keying a body is pure, so the
// result is memoised under the body hash: the steady-state cache-hit
// request (same body again and again) costs one sha256, not a re-parse.
func (r *Router) affinityKey(method, path string, body []byte) Key {
	h := sha256.New()
	io.WriteString(h, method)
	io.WriteString(h, "\x00")
	io.WriteString(h, path)
	io.WriteString(h, "\x00")
	h.Write(body)
	var bodyHash Key
	h.Sum(bodyHash[:0])
	if r.keyFn == nil {
		return bodyHash
	}
	r.keyMu.Lock()
	key, ok := r.keyMemo[bodyHash]
	r.keyMu.Unlock()
	if ok {
		return key
	}
	key, keyed := r.keyFn(method, path, body)
	if !keyed {
		key = bodyHash
	}
	r.keyMu.Lock()
	if len(r.keyMemo) >= keyMemoMax {
		r.keyMemo = make(map[Key]Key, keyMemoMax)
	}
	r.keyMemo[bodyHash] = key
	r.keyMu.Unlock()
	return key
}

// bufferedResponse is one fully-read upstream response: buffering is
// what makes mid-response replica death retryable instead of a torn
// body on the client's connection.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// forward tries the key's shards in preference order — healthy
// non-shedding first, then shedding-but-healthy, then down shards as
// the last resort (the poller may simply not have caught up with a
// recovery) — and returns the first complete response. The returned
// spill reason is "" when the home shard served the request.
func (r *Router) forward(req *http.Request, body []byte, key Key, reqID string) (*bufferedResponse, int, string, error) {
	prefs := r.ring.order(key)
	type attempt struct {
		shard  int
		reason string
	}
	var tries []attempt
	reasonFor := func(rank int, s *shard) string {
		if rank == 0 {
			return ""
		}
		home := r.shards[prefs[0]]
		switch {
		case !home.healthy():
			return "down"
		case home.shedding():
			return "shedding"
		}
		return "retry"
	}
	for pass := 0; pass < 3; pass++ {
		for rank, idx := range prefs {
			s := r.shards[idx]
			use := false
			switch pass {
			case 0:
				use = s.healthy() && !s.shedding()
			case 1:
				use = s.healthy() && s.shedding()
			default:
				use = !s.healthy()
			}
			if use {
				tries = append(tries, attempt{shard: idx, reason: reasonFor(rank, s)})
			}
		}
	}

	tr := obs.TraceFrom(req.Context())
	parent := obs.SpanID(req.Context())
	var lastErr error
	for i, a := range tries {
		s := r.shards[a.shard]
		// Each forward attempt is one span, minted before the call so the
		// replica's root span can name it as parent via traceparent —
		// that link is what stitches the two processes' trees together.
		fwdStart := time.Now()
		var fwdID, traceparent string
		if tr != nil {
			fwdID = tr.NewSpanID()
			traceparent = obs.FormatTraceparent(tr.ID(), fwdID)
		}
		resp, err := r.tryShard(req, s, body, reqID, traceparent)
		if tr != nil {
			attrs := map[string]string{"shard": s.url}
			if a.reason != "" {
				attrs["reason"] = a.reason
			}
			if err != nil {
				attrs["error"] = "transport"
			} else {
				attrs["status"] = strconv.Itoa(resp.status)
			}
			tr.Record(fwdID, parent, "cluster.forward", fwdStart, time.Since(fwdStart), attrs)
		}
		if err == nil {
			reason := a.reason
			if reason == "" && i > 0 {
				reason = "retry" // home answered the ring but failed the forward
			}
			return resp, a.shard, reason, nil
		}
		s.errors.Add(1)
		if r.metrics != nil {
			r.metrics.errorsM.With(s.url).Inc()
		}
		lastErr = err
		if req.Context().Err() != nil {
			break // the client is gone; stop burning shards
		}
		r.log.Warn("cluster: forward failed, trying next shard", "shard", s.url, "err", err)
	}
	return nil, 0, "", fmt.Errorf("cluster: no shard could serve the request: %w", lastErr)
}

// tryShard forwards one attempt and buffers the complete response.
func (r *Router) tryShard(req *http.Request, s *shard, body []byte, reqID, traceparent string) (*bufferedResponse, error) {
	url := s.url + req.URL.Path
	if req.URL.RawQuery != "" {
		url += "?" + req.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out.Header = req.Header.Clone()
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	out.Header.Set("X-Request-ID", reqID)
	// The replica joins the router's trace under this attempt's forward
	// span — never under whatever traceparent the client sent; the
	// router's edge already decided whether to continue that one.
	out.Header.Del("traceparent")
	if traceparent != "" {
		out.Header.Set("traceparent", traceparent)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 4*r.maxBody))
	if err != nil {
		return nil, err // died mid-body: retryable, the client saw nothing
	}
	header := resp.Header.Clone()
	for _, h := range hopHeaders {
		header.Del(h)
	}
	return &bufferedResponse{status: resp.StatusCode, header: header, body: respBody}, nil
}

// ShardStats is one replica's row in the router's Stats.
type ShardStats struct {
	URL string `json:"url"`
	// State is "up", "shedding" or "down".
	State string `json:"state"`
	// Requests counts proxied requests this shard served; Spills the
	// subset that landed here off their home shard; Errors the forward
	// attempts that failed at the transport layer.
	Requests uint64 `json:"requests"`
	Spills   uint64 `json:"spills"`
	Errors   uint64 `json:"errors"`
}

// Stats is the router's point-in-time view of the fleet.
type Stats struct {
	Shards []ShardStats `json:"shards"`
}

func stateName(s int32) string {
	switch s {
	case StateUp:
		return "up"
	case StateShedding:
		return "shedding"
	}
	return "down"
}

// Stats snapshots per-shard health and counters.
func (r *Router) Stats() Stats {
	out := Stats{Shards: make([]ShardStats, len(r.shards))}
	for i, s := range r.shards {
		out.Shards[i] = ShardStats{
			URL:      s.url,
			State:    stateName(s.state.Load()),
			Requests: s.requests.Load(),
			Spills:   s.spills.Load(),
			Errors:   s.errors.Load(),
		}
	}
	return out
}

// handleStats serves GET /cluster/stats: the router's own fleet view
// (replica /v2/stats documents stay per-replica — scrape them directly
// or via /metrics on each replica).
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.Stats())
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// routerMetrics is the ssync_cluster_* family set on the attached
// registry: per-shard counters plus the shard-state gauge mirrored at
// scrape time.
type routerMetrics struct {
	reg      *obs.Registry
	requests *obs.Metric
	spills   *obs.Metric
	errorsM  *obs.Metric
	state    *obs.Metric
	proxyDur *obs.Metric
}

func newRouterMetrics(reg *obs.Registry, r *Router) *routerMetrics {
	m := &routerMetrics{
		reg: reg,
		requests: reg.Counter("ssync_cluster_requests_total",
			"Requests proxied, by the shard that served them.", "shard"),
		spills: reg.Counter("ssync_cluster_spills_total",
			"Requests served off their home shard, by serving shard and reason (down/shedding/retry).",
			"shard", "reason"),
		errorsM: reg.Counter("ssync_cluster_forward_errors_total",
			"Forward attempts that failed at the transport layer, by shard.", "shard"),
		state: reg.Gauge("ssync_cluster_shard_state",
			"Shard health state: 0 down, 1 shedding, 2 up.", "shard"),
		proxyDur: reg.Histogram("ssync_cluster_proxy_duration_seconds",
			"End-to-end proxy latency, by route.", nil, "route"),
	}
	reg.OnScrape(func() {
		for _, s := range r.shards {
			m.state.With(s.url).Set(float64(s.state.Load()))
		}
	})
	return m
}
