package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one ssyncd child process under measurement.
type daemon struct {
	cmd     *exec.Cmd
	counter *instrCounter
	base    string // http://host:port
	client  *http.Client
	started time.Time // just before exec
	exited  chan struct{}
	waitErr error
}

// startDaemon execs bin with args plus a loopback -addr on a free port,
// counts its instructions from exec on, and waits until it listens.
// Its standard error goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// The child must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	d.started = time.Now()
	d.counter, err = startCounted(cmd)
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "ssyncd listening on 127.0.0.1:40123 (workers=...)"
			if rest, ok := strings.CutPrefix(sc.Text(), "ssyncd listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					addr <- f[0]
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until exit
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		d.counter.Close()
		return nil, fmt.Errorf("ssyncd exited before listening (%v); see %s", d.waitErr, logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("ssyncd did not listen within 30s; see %s", logPath)
	}
	// One keep-alive connection: a closed-loop caller waiting for each reply.
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true,
	}}
	return d, nil
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10s) and
// waits until it has exited.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.counter.Close()
}

// peakRSSMiB is the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "12345 kB"
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// reply is one /v2/compile outcome as the benchmark checks it.
type reply struct {
	Status  int
	TraceID string
	Body    []byte
}

// post sends one /v2/compile request and reads the whole reply.
func (d *daemon) post(body []byte) (reply, error) {
	resp, err := d.client.Post(d.base+"/v2/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{Status: resp.StatusCode, TraceID: resp.Header.Get("X-Trace-ID"), Body: b}, nil
}

// getJSON decodes GET path into dst.
func (d *daemon) getJSON(path string, dst any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // best effort, for the error message
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
