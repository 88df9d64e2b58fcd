package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"
)

// spinEnv makes the test binary a busy-loop child instead of running
// tests: PERFBENCH_SPIN=<iterations>.
const spinEnv = "PERFBENCH_SPIN"

var spinSink uint64

func TestMain(m *testing.M) {
	if n, err := strconv.ParseUint(os.Getenv(spinEnv), 10, 64); err == nil {
		x := uint64(1)
		for i := uint64(0); i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink = x
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spinChild starts a counted busy-loop child of n iterations.
func spinChild(t *testing.T, n uint64) (*exec.Cmd, *instrCounter) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", spinEnv, n))
	c, err := startCounted(cmd)
	if errors.Is(err, errNoCounter) {
		t.Fatalf("%v\n%s", err, counterHint())
	}
	if err != nil {
		t.Fatal(err)
	}
	return cmd, c
}

// countSpin returns the instructions a child of n iterations retires.
func countSpin(t *testing.T, n uint64) uint64 {
	cmd, c := spinChild(t, n)
	defer c.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestInstrCounterMonotonic(t *testing.T) {
	cmd, c := spinChild(t, 3_000_000_000)
	defer c.Close()
	defer func() { _ = cmd.Process.Kill(); _ = cmd.Wait() }()
	// The count stays zero until the child has been scheduled after its
	// exec stop; give it time to start.
	var last uint64
	for deadline := time.Now().Add(10 * time.Second); last == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the child retired no counted instruction within 10s")
		}
		time.Sleep(10 * time.Millisecond)
		last, _ = c.Read() // zero and an error until the child runs
	}
	first := last
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		v, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if v < last {
			t.Fatalf("read %d: count %d after %d; want nondecreasing", i, v, last)
		}
		last = v
	}
	if last == first {
		t.Fatalf("a busy child retired no instruction in 100ms (count stuck at %d)", last)
	}
}

func TestInstrCounterScalesWithWork(t *testing.T) {
	const n = 50_000_000
	small, large := countSpin(t, n), countSpin(t, 4*n)
	if small == 0 {
		t.Fatal("zero instructions counted")
	}
	// The loop body is a few instructions per iteration; process start-up
	// is the same for both children and small next to the loop.
	if small < n {
		t.Fatalf("%d iterations counted only %d instructions", n, small)
	}
	if r := float64(large) / float64(small); r < 3 || r > 5 {
		t.Fatalf("4x the work counted %.2fx the instructions (%d vs %d)", r, large, small)
	}
}
