package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"strings"
	"testing"
	"time"

	"ssync/internal/engine"
)

// TestV2BodyKeyOrder pins the JSON shape of one /v2/compile body (a
// cache hit, so cache_tier is present) and one /v2/stats body: every
// key path in document order, with deterministic values. Clients —
// perfbench among them — read these fields by name, so a refactor of
// the wire structs must not rename, drop or reorder one. Timings,
// per-request IDs and the opaque content address are masked in the
// compile body; the stats body masks every number (its counters include
// process-wide simulator state) and the compiler list (tests register
// compilers in the shared registry). After an intentional wire change,
// refresh with:
//
//	go test ./cmd/ssyncd/ -run TestV2BodyKeyOrder -update
var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden wire shapes")

func TestV2BodyKeyOrder(t *testing.T) {
	srv := newServer(engine.New(engine.Options{Workers: 2, StageCacheSize: 16}), 2, time.Minute)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	body := `{"label":"golden","benchmark":"QFT_12","topology":"G-2x2","capacity":8}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v2/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if i == 1 {
			compileMasked := map[string]bool{"compile_ms": true, "ms": true, "key": true, "request_id": true, "trace_id": true}
			checkWireGolden(t, "testdata/v2_compile.golden", raw, compileMasked, false)
		}
	}

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkWireGolden(t, "testdata/v2_stats.golden", raw, map[string]bool{"compilers": true}, true)
}

// checkWireGolden flattens body to one "path = value" line per leaf and
// compares it with the golden file (or rewrites the file under -update).
// Values under a key named in masked, and every number when maskNumbers
// is set, render as <masked>.
func checkWireGolden(t *testing.T, golden string, body []byte, masked map[string]bool, maskNumbers bool) {
	t.Helper()
	got, err := flattenJSON(body, masked, maskNumbers)
	if err != nil {
		t.Fatalf("%s: flattening %s: %v", golden, body, err)
	}
	if *updateGolden {
		if err := os.MkdirAll(path.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./cmd/ssyncd/ -run TestV2BodyKeyOrder -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: wire shape changed\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

func flattenJSON(body []byte, masked map[string]bool, maskNumbers bool) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var b strings.Builder
	var walk func(p, key string) error
	walk = func(p, key string) error {
		if masked[key] {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s = <masked>\n", p)
			return nil
		}
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch v := tok.(type) {
		case json.Delim:
			for i := 0; dec.More(); i++ {
				child, childKey := fmt.Sprintf("%s[%d]", p, i), key
				if v == '{' {
					k, err := dec.Token()
					if err != nil {
						return err
					}
					childKey = k.(string)
					child = p + "." + childKey
				}
				if err := walk(child, childKey); err != nil {
					return err
				}
			}
			_, err := dec.Token() // closing delimiter
			return err
		case json.Number:
			if maskNumbers {
				fmt.Fprintf(&b, "%s = <masked>\n", p)
				return nil
			}
		}
		fmt.Fprintf(&b, "%s = %v\n", p, tok)
		return nil
	}
	if err := walk("$", ""); err != nil {
		return "", err
	}
	return b.String(), nil
}
