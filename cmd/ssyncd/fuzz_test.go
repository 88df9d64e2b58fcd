package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzCompileRequestV2 drives arbitrary bodies through the only wire
// decode the service has — decodeJSON, then the cheap validation
// (resolveStrategy) and circuit/topology construction a /v2/compile
// request goes through — and through the cluster router's
// routerRequestKey. Nothing may panic, and a body the router keys must
// be one the replica accepts: the router places requests by that key, so
// the two must agree on validity. Seeds live in testdata/fuzz; run with
//
//	go test ./cmd/ssyncd/ -run '^$' -fuzz FuzzCompileRequestV2 -fuzztime 20s
func FuzzCompileRequestV2(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		_, keyed := routerRequestKey(http.MethodPost, "/v2/compile", body)
		reject := func(stage string, err error) {
			if keyed {
				t.Fatalf("router keyed a body the replica rejects at %s: %v\nbody: %q", stage, err, body)
			}
		}
		r := httptest.NewRequest(http.MethodPost, "/v2/compile", bytes.NewReader(body))
		var req compileRequestV2
		if err := decodeJSON(httptest.NewRecorder(), r, &req); err != nil {
			reject("decode", err)
			return
		}
		if _, _, _, err := resolveStrategy(req); err != nil {
			reject("resolveStrategy", err)
			return
		}
		if _, err := buildCircuit(req); err != nil {
			reject("buildCircuit", err)
			return
		}
		if _, err := buildTopology(req); err != nil {
			reject("buildTopology", err)
		}
	})
}
