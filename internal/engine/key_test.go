package engine

import "testing"

// TestRequestKeyAllocsIndependentOfCircuitSize guards the key layer's
// allocation budget: keying a request allocates the same small number of
// objects whatever the circuit's size, because the circuit enters as a
// streamed digest rather than a rendered program.
func TestRequestKeyAllocsIndependentOfCircuitSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	allocs := func(bench string) float64 {
		req := testRequest(t, bench, "G-2x3", 16, CompilerSSync)
		return testing.AllocsPerRun(20, func() {
			if _, err := RequestKey(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("QFT_24"), allocs("QFT_64")
	if small != large {
		t.Errorf("RequestKey allocates %v objects for QFT_24 but %v for QFT_64", small, large)
	}
	if large > 64 {
		t.Errorf("RequestKey allocates %v objects per call, want a small constant", large)
	}
	t.Logf("RequestKey allocations per call: %v", large)
}
