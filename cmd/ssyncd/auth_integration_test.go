package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ssync/internal/auth"
	"ssync/internal/cluster"
	"ssync/internal/engine"
	"ssync/internal/obs"
)

// The access-control integration tests run the real HTTP stack: the
// instrument middleware, the auth guard, the engine's admission
// scheduler — everything -auth-keys / -cluster-secret wires up, minus
// only the flag parsing.

// writeKeyFile writes an API-keys file and returns its path.
func writeKeyFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.conf")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// testAuthLayer builds an authLayer with the keys-file freshness check
// on every request (tests rewrite the file and expect the next lookup
// to see it).
func testAuthLayer(t *testing.T, reg *obs.Registry, keysFile string, optional bool, secret string) *authLayer {
	t.Helper()
	authn, err := auth.NewAuthenticator(auth.Config{
		KeysFile: keysFile, Optional: optional, CheckInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var signer *auth.Signer
	if secret != "" {
		if signer, err = auth.NewSigner(secret, 0); err != nil {
			t.Fatal(err)
		}
	}
	al := &authLayer{
		authn: authn, enforcer: auth.NewEnforcer(), signer: signer,
		log: slog.New(slog.DiscardHandler),
	}
	al.register(reg)
	return al
}

// newAuthServer builds a guarded single-replica server.
func newAuthServer(t *testing.T, opt engine.Options, workers int, keysFile string, optional bool, secret string) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(engine.New(opt), workers, time.Minute)
	srv.auth = testAuthLayer(t, srv.reg, keysFile, optional, secret)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postKeyed posts a JSON body with an API key (via Authorization:
// Bearer when key is non-empty) and decodes the response into out.
func postKeyed(t *testing.T, url, key string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func compileBody(label string) compileRequestV2 {
	return compileRequestV2{Label: label, Benchmark: "QFT_8", Topology: "G-2x2", Capacity: 8}
}

// TestAuthRequiredRejectsHostileInputs: a service with a keys file and
// no -auth-optional rejects every malformed, missing or unknown
// credential with 401 — and never upgrades one to anonymous — while the
// GET surface stays open for health checks and scrapers.
func TestAuthRequiredRejectsHostileInputs(t *testing.T) {
	keys := writeKeyFile(t, auth.HashKey("good-key")+" alice")
	_, ts := newAuthServer(t, engine.Options{Workers: 2}, 2, keys, false, "test-secret")

	var ok compileResponseV2
	if resp := postKeyed(t, ts.URL+"/v2/compile", "good-key", compileBody("ok"), &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key: status %d", resp.StatusCode)
	}
	if ok.Priority != "interactive" {
		t.Fatalf("uncapped principal should run interactive, got %q", ok.Priority)
	}

	// X-API-Key is an equivalent credential carrier.
	raw, _ := json.Marshal(compileBody("xkey"))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/compile", bytes.NewReader(raw))
	req.Header.Set("X-API-Key", "good-key")
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key: %v status %v", err, resp.StatusCode)
	}

	hostile := map[string]func(r *http.Request){
		"no credential":       func(r *http.Request) {},
		"unknown key":         func(r *http.Request) { r.Header.Set("Authorization", "Bearer wrong-key") },
		"wrong scheme":        func(r *http.Request) { r.Header.Set("Authorization", "Basic Z29vZC1rZXk=") },
		"scheme only":         func(r *http.Request) { r.Header.Set("Authorization", "Bearer") },
		"empty bearer":        func(r *http.Request) { r.Header.Set("Authorization", "Bearer    ") },
		"oversized bearer":    func(r *http.Request) { r.Header.Set("Authorization", "Bearer "+strings.Repeat("x", 4096)) },
		"key with spaces":     func(r *http.Request) { r.Header.Set("Authorization", "Bearer a b c") },
		"oversized X-API-Key": func(r *http.Request) { r.Header.Set("X-API-Key", strings.Repeat("y", 1000)) },
		"forged identity":     func(r *http.Request) { r.Header.Set(auth.IdentityHeader, "v1.eyJuYW1lIjoiYWRtaW4ifQ.deadbeef") },
		"garbage identity":    func(r *http.Request) { r.Header.Set(auth.IdentityHeader, "not-an-identity") },
		"unsigned identity": func(r *http.Request) {
			r.Header.Set(auth.IdentityHeader, "v1.eyJuYW1lIjoiYWRtaW4iLCJpYXQiOjE3MDAwMDAwMDB9."+strings.Repeat("0", 64))
		},
	}
	for name, arm := range hostile {
		raw, _ := json.Marshal(compileBody(name))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/compile", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		arm(req)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var errBody map[string]string
		json.NewDecoder(resp.Body).Decode(&errBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status %d, want 401 (%v)", name, resp.StatusCode, errBody)
		}
		if errBody["error"] == "" {
			t.Errorf("%s: missing structured error body", name)
		}
	}

	// The GET surface needs no credentials: health checks, scrapers and
	// the cluster router's replica polling keep working.
	for _, path := range []string{"/v2/stats", "/v2/compilers", "/v2/passes", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with no credential: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestQuotaDegradesBeforeShedding walks one principal down the whole
// ladder over the live HTTP stack: an over-budget principal's requests
// are demoted interactive → batch → background (visible in the
// response's priority echo), then shed with 429 + Retry-After, and the
// stats auth section accounts every step.
func TestQuotaDegradesBeforeShedding(t *testing.T) {
	// rate≈0 keeps the bucket from refilling mid-test: the ladder walk
	// is then exactly deterministic (burst 2 ⇒ 2 interactive, 2 batch,
	// 2 background, then shed).
	keys := writeKeyFile(t, auth.HashKey("key-a")+" alice rate=0.001 burst=2")
	_, ts := newAuthServer(t, engine.Options{Workers: 2}, 2, keys, false, "")

	want := []string{"interactive", "interactive", "batch", "batch", "background", "background"}
	for i, cls := range want {
		var got compileResponseV2
		resp := postKeyed(t, ts.URL+"/v2/compile", "key-a", compileBody(fmt.Sprintf("r%d", i)), &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if got.Priority != cls {
			t.Fatalf("request %d ran at %q, want %q", i, got.Priority, cls)
		}
	}
	var errBody map[string]string
	resp := postKeyed(t, ts.URL+"/v2/compile", "key-a", compileBody("shed"), &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ladder exhausted: status %d, want 429 (%v)", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 missing Retry-After")
	}

	st := statsV2(t, ts)
	if st.Auth == nil || len(st.Auth.Principals) != 1 {
		t.Fatalf("stats missing auth section: %+v", st.Auth)
	}
	a := st.Auth.Principals[0]
	if a.Name != "alice" || a.Admitted != 6 || a.Demoted != 4 || a.ShedRate != 1 {
		t.Fatalf("alice quota stats: %+v", a)
	}
	if st.Auth.Keys.Keys != 1 {
		t.Fatalf("keyset stats: %+v", st.Auth.Keys)
	}
	// The scheduler accounted the same identity.
	if st.Sched == nil || len(st.Sched.Principals) == 0 || st.Sched.Principals[0].Name != "alice" {
		t.Fatalf("sched principals missing alice: %+v", st.Sched)
	}
}

// TestQuotaIsolatesPrincipals is the acceptance scenario: principal
// "flood" hammers interactive requests far past its budget while "bob"
// (within budget) keeps compiling. The flood rides the ladder — demoted
// grants, then 429s — and bob's interactive latency stays within 2× his
// quiet baseline (plus an absolute floor against CI jitter).
func TestQuotaIsolatesPrincipals(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-sensitive load test")
	}
	keys := writeKeyFile(t,
		auth.HashKey("key-flood")+" flood rate=5 burst=3 inflight=2",
		auth.HashKey("key-bob")+" bob",
	)
	// Cacheless: bob's repeated circuits must cost a real compile in
	// both phases for the latency comparison to mean anything.
	_, ts := newAuthServer(t, engine.Options{CacheSize: -1, Workers: 2}, 2, keys, false, "")

	bobRound := func() []time.Duration {
		var durs []time.Duration
		for i, b := range []string{"QFT_8", "BV_8", "QFT_10", "BV_10", "QFT_12", "BV_12"} {
			body := compileRequestV2{Label: fmt.Sprintf("bob%d", i), Benchmark: b, Topology: "G-2x2", Capacity: 8}
			start := time.Now()
			var got compileResponseV2
			if resp := postKeyed(t, ts.URL+"/v2/compile", "key-bob", body, &got); resp.StatusCode != http.StatusOK {
				t.Fatalf("bob %s: status %d", b, resp.StatusCode)
			}
			if got.Priority != "interactive" {
				t.Fatalf("bob demoted to %q; within-budget principals must keep their class", got.Priority)
			}
			durs = append(durs, time.Since(start))
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return durs
	}
	quiet := bobRound()

	// Flood: four clients hammering interactive compiles on one key.
	// Most are shed at the edge; the admitted overflow runs demoted, so
	// the worker slots keep favouring bob's interactive class.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := compileRequestV2{
					Label: fmt.Sprintf("flood%d-%d", c, i), Benchmark: "QFT_12",
					Topology: "G-2x2", Capacity: 8, Priority: "interactive",
				}
				postKeyed(t, ts.URL+"/v2/compile", "key-flood", body, nil)
			}
		}(c)
	}
	loaded := bobRound()
	close(stop)
	wg.Wait()

	p50q, p50l := quiet[len(quiet)/2], loaded[len(loaded)/2]
	limit := 2 * p50q
	if floor := 300 * time.Millisecond; limit < floor {
		limit = floor
	}
	if p50l > limit {
		t.Fatalf("bob p50 under flood = %v, quiet = %v; want within %v", p50l, p50q, limit)
	}

	st := statsV2(t, ts)
	if st.Auth == nil {
		t.Fatal("stats missing auth section")
	}
	var flood *auth.PrincipalQuotaStats
	for i := range st.Auth.Principals {
		if st.Auth.Principals[i].Name == "flood" {
			flood = &st.Auth.Principals[i]
		}
	}
	if flood == nil {
		t.Fatalf("flood principal missing from auth stats: %+v", st.Auth.Principals)
	}
	if flood.Demoted == 0 {
		t.Errorf("flood was never demoted: %+v", flood)
	}
	if flood.ShedRate+flood.ShedInFlight == 0 {
		t.Errorf("flood was never shed: %+v", flood)
	}
}

// TestBatchChargesPerEntry: a batch carrying k entries costs its
// principal k rate tokens, not one HTTP request — the overflow banked
// by a big batch demotes (and here sheds) the principal's next request.
func TestBatchChargesPerEntry(t *testing.T) {
	keys := writeKeyFile(t, auth.HashKey("key-b")+" batcher rate=0.001 burst=2")
	_, ts := newAuthServer(t, engine.Options{Workers: 2}, 2, keys, false, "")

	var entries []compileRequestV2
	for i := 0; i < 6; i++ {
		entries = append(entries, compileBody(fmt.Sprintf("e%d", i)))
	}
	var got batchResponseV2
	resp := postKeyed(t, ts.URL+"/v2/batch", "key-b", batchRequestV2{Requests: entries}, &got)
	if resp.StatusCode != http.StatusOK || got.Errors != 0 {
		t.Fatalf("batch: status %d errors %d", resp.StatusCode, got.Errors)
	}
	// Admission paid 1 token (balance 2→1), the 5 extra entries banked
	// the balance to the −2·burst floor — past the background band, so
	// the next single request sheds.
	var errBody map[string]string
	resp = postKeyed(t, ts.URL+"/v2/compile", "key-b", compileBody("next"), &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("after 6-entry batch: status %d, want 429 (%v)", resp.StatusCode, errBody)
	}
}

// TestAuthOptionalAnonymous: with -auth-optional, credential-less
// requests share the "anonymous" principal; a wrong key is still
// rejected rather than downgraded.
func TestAuthOptionalAnonymous(t *testing.T) {
	keys := writeKeyFile(t, auth.HashKey("good-key")+" alice")
	_, ts := newAuthServer(t, engine.Options{Workers: 2}, 2, keys, true, "")

	var got compileResponseV2
	if resp := postJSON(t, ts.URL+"/v2/compile", compileBody("anon"), &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous compile: status %d", resp.StatusCode)
	}
	var errBody map[string]string
	if resp := postKeyed(t, ts.URL+"/v2/compile", "wrong-key", compileBody("bad"), &errBody); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong key in optional mode: status %d, want 401", resp.StatusCode)
	}
	st := statsV2(t, ts)
	if st.Auth == nil || len(st.Auth.Principals) != 1 || st.Auth.Principals[0].Name != auth.AnonymousName {
		t.Fatalf("anonymous principal missing from auth stats: %+v", st.Auth)
	}
}

// TestAuthKeysHotReloadOverHTTP: rotating the keys file takes effect on
// the next request with no restart — the new key works, the retired one
// stops working, and a bad edit keeps the previous generation serving.
func TestAuthKeysHotReloadOverHTTP(t *testing.T) {
	keys := writeKeyFile(t, auth.HashKey("old-key")+" svc")
	_, ts := newAuthServer(t, engine.Options{Workers: 2}, 2, keys, false, "")

	if resp := postKeyed(t, ts.URL+"/v2/compile", "old-key", compileBody("a"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("old key before rotation: status %d", resp.StatusCode)
	}
	if err := os.WriteFile(keys, []byte(auth.HashKey("new-key")+" svc\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if resp := postKeyed(t, ts.URL+"/v2/compile", "new-key", compileBody("b"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("rotated key: status %d", resp.StatusCode)
	}
	if resp := postKeyed(t, ts.URL+"/v2/compile", "old-key", compileBody("c"), nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("retired key: status %d, want 401", resp.StatusCode)
	}
	// A bad edit must not take the service down.
	if err := os.WriteFile(keys, []byte("not a keys file\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if resp := postKeyed(t, ts.URL+"/v2/compile", "new-key", compileBody("d"), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("previous generation after bad edit: status %d", resp.StatusCode)
	}
	if st := statsV2(t, ts); st.Auth == nil || st.Auth.Keys.ReloadErrors == 0 {
		t.Fatal("bad edit should count a reload error in stats")
	}
}

// TestClusterKeysLiveOnlyAtEdge proves the fleet story: the router
// authenticates API keys and quota-admits at the edge, replicas see
// only the signed identity header — a key presented directly to a
// replica fails, a forged identity fails, and the principal's class cap
// still binds machine-locally on the replica.
func TestClusterKeysLiveOnlyAtEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a replica fleet")
	}
	const secret = "fleet-secret"
	keys := writeKeyFile(t, auth.HashKey("key-a")+" alpha max-priority=batch rate=100")

	// Replicas: full handler stacks with the cluster secret but NO keys
	// file — identity arrives only via the signed header.
	reps := make([]*server, 2)
	urls := make([]string, 2)
	for i := range reps {
		srv := newServer(engine.New(engine.Options{Workers: 4}), 4, time.Minute)
		srv.auth = testAuthLayer(t, srv.reg, "", false, secret)
		hts := httptest.NewServer(srv.routes())
		t.Cleanup(hts.Close)
		reps[i] = srv
		urls[i] = hts.URL
	}
	router, err := cluster.New(cluster.Options{
		Replicas: urls, KeyFn: routerRequestKey,
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	edge := testAuthLayer(t, obs.NewRegistry(), keys, false, secret)
	front := httptest.NewServer(edge.edgeGuard(router))
	t.Cleanup(front.Close)

	// No credential at the edge: 401 from the router, nothing proxied.
	var errBody map[string]string
	if resp := postJSON(t, front.URL+"/v2/compile", compileBody("nocred"), &errBody); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("edge without credential: status %d, want 401", resp.StatusCode)
	}

	// A valid key compiles through the fleet, and the principal's
	// max-priority=batch cap traveled inside the signed identity: the
	// replica clamps the interactive default down to batch.
	var got compileResponseV2
	if resp := postKeyed(t, front.URL+"/v2/compile", "key-a", compileBody("ok"), &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key via router: status %d", resp.StatusCode)
	}
	if got.Priority != "batch" {
		t.Fatalf("forwarded identity cap not applied: ran at %q, want batch", got.Priority)
	}

	// The serving replica accounted the request under its principal
	// name, while its own quota enforcer stayed idle (charged at the
	// edge) — and the keys never left the edge.
	var sawAlpha bool
	for _, srv := range reps {
		st := srv.statsV2()
		if st.Auth != nil && len(st.Auth.Principals) > 0 {
			t.Fatalf("replica enforcer charged a forwarded request: %+v", st.Auth.Principals)
		}
		if st.Sched == nil {
			continue
		}
		for _, p := range st.Sched.Principals {
			if p.Name == "alpha" && p.Admitted > 0 {
				sawAlpha = true
			}
		}
	}
	if !sawAlpha {
		t.Fatal("no replica accounted principal alpha in its scheduler stats")
	}

	// Directly at a replica: the API key is unknown (keys live only at
	// the edge), and identity headers that don't verify are rejected —
	// signed with the wrong secret, or not signed at all.
	replicaURL := urls[0]
	if resp := postKeyed(t, replicaURL+"/v2/compile", "key-a", compileBody("direct"), &errBody); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("API key direct to replica: status %d, want 401", resp.StatusCode)
	}
	wrongSigner, err := auth.NewSigner("not-the-secret", 0)
	if err != nil {
		t.Fatal(err)
	}
	forged := wrongSigner.Sign(&auth.Principal{Name: "alpha"}, "")
	for name, hdr := range map[string]string{
		"wrong secret": forged,
		"unsigned":     "v1.eyJuYW1lIjoiYWxwaGEiLCJpYXQiOjE3MDAwMDAwMDB9." + strings.Repeat("0", 64),
		"garbage":      "hello",
	} {
		raw, _ := json.Marshal(compileBody(name))
		req, _ := http.NewRequest(http.MethodPost, replicaURL+"/v2/compile", bytes.NewReader(raw))
		req.Header.Set(auth.IdentityHeader, hdr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s identity direct to replica: status %d, want 401", name, resp.StatusCode)
		}
	}

	// A client-supplied identity header cannot tunnel through the edge:
	// the router drops it and mints its own.
	raw, _ := json.Marshal(compileBody("smuggle"))
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v2/compile", bytes.NewReader(raw))
	req.Header.Set("Authorization", "Bearer key-a")
	req.Header.Set(auth.IdentityHeader, forged)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var smuggled compileResponseV2
	json.NewDecoder(resp.Body).Decode(&smuggled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || smuggled.Priority != "batch" {
		t.Fatalf("smuggled identity: status %d priority %q, want the edge-minted identity to win", resp.StatusCode, smuggled.Priority)
	}
}
