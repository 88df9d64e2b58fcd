package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// perfEventAttr mirrors struct perf_event_attr (PERF_ATTR_SIZE_VER5, 112
// bytes) from linux/perf_event.h.
type perfEventAttr struct {
	Type             uint32
	Size             uint32
	Config           uint64
	SamplePeriod     uint64
	SampleType       uint64
	ReadFormat       uint64
	Flags            uint64
	WakeupEvents     uint32
	BpType           uint32
	Config1          uint64
	Config2          uint64
	BranchSampleType uint64
	SampleRegsUser   uint64
	SampleStackUser  uint32
	ClockID          int32
	SampleRegsIntr   uint64
	AuxWatermark     uint32
	SampleMaxStack   uint16
	_                uint16
}

const (
	perfTypeHardware      = 0
	perfCountInstructions = 1

	perfFlagInherit       = 1 << 1
	perfFlagExcludeKernel = 1 << 5
	perfFlagExcludeHV     = 1 << 6

	perfFormatTotalTimeEnabled = 1 << 0
	perfFormatTotalTimeRunning = 1 << 1
)

// errNoCounter reports that the hardware instruction counter cannot be
// opened on this host (no PMU exposed, perf_event_paranoid too strict, or
// perf_event_open or ptrace blocked). The benchmark refuses to run
// without it rather than report a zero.
var errNoCounter = errors.New("hardware instruction counter unavailable")

// instrCounter counts the user-space instructions retired by one process
// and every thread and child it creates after the counter was opened.
type instrCounter struct {
	fd int
}

// startCounted starts cmd stopped at its exec (via ptrace), opens an
// inheriting user-space instruction counter on it while it still has a
// single thread, and lets it run. Every runtime thread the child creates
// afterwards is counted. On error the child, if started, is killed and
// reaped.
func startCounted(cmd *exec.Cmd) (*instrCounter, error) {
	if cmd.SysProcAttr == nil {
		cmd.SysProcAttr = &syscall.SysProcAttr{}
	}
	cmd.SysProcAttr.Ptrace = true
	// ptrace requests must come from the thread that became the tracer.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pid := cmd.Process.Pid
	fail := func(err error) (*instrCounter, error) {
		_ = cmd.Process.Kill() // the child is unusable; Wait reports why
		_ = cmd.Wait()
		return nil, err
	}
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(pid, &ws, 0, nil); err != nil {
		return fail(fmt.Errorf("wait for exec stop: %w", err))
	}
	if !ws.Stopped() {
		return fail(fmt.Errorf("child did not stop at exec (status %v)", ws))
	}
	c, err := openInstrCounter(pid)
	if err != nil {
		return fail(err)
	}
	if err := syscall.PtraceDetach(pid); err != nil {
		c.Close()
		return fail(fmt.Errorf("ptrace detach: %w", err))
	}
	return c, nil
}

// openInstrCounter opens an enabled, inheriting counter of user-space
// instructions retired by pid.
func openInstrCounter(pid int) (*instrCounter, error) {
	attr := perfEventAttr{
		Type:       perfTypeHardware,
		Config:     perfCountInstructions,
		ReadFormat: perfFormatTotalTimeEnabled | perfFormatTotalTimeRunning,
		Flags:      perfFlagInherit | perfFlagExcludeKernel | perfFlagExcludeHV,
	}
	attr.Size = uint32(unsafe.Sizeof(attr))
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN,
		uintptr(unsafe.Pointer(&attr)), uintptr(pid), ^uintptr(0) /* any CPU */, ^uintptr(0) /* no group */, 0, 0)
	if errno != 0 {
		return nil, fmt.Errorf("%w: perf_event_open: %v", errNoCounter, errno)
	}
	return &instrCounter{fd: int(fd)}, nil
}

// Read returns the instructions counted so far. A counter that was
// multiplexed with other events is scaled by its enabled/running time; one
// that never ran is an error, never a zero.
func (c *instrCounter) Read() (uint64, error) {
	var buf [24]byte
	n, err := syscall.Read(c.fd, buf[:])
	if err != nil {
		return 0, fmt.Errorf("read instruction counter: %w", err)
	}
	if n != len(buf) {
		return 0, fmt.Errorf("read instruction counter: short read of %d bytes", n)
	}
	value := binary.LittleEndian.Uint64(buf[0:])
	enabled := binary.LittleEndian.Uint64(buf[8:])
	running := binary.LittleEndian.Uint64(buf[16:])
	if running == 0 || value == 0 {
		return 0, fmt.Errorf("%w: the counter never ran", errNoCounter)
	}
	if running < enabled {
		value = uint64(float64(value) * float64(enabled) / float64(running))
	}
	return value, nil
}

// Close releases the counter.
func (c *instrCounter) Close() {
	if c != nil && c.fd >= 0 {
		_ = syscall.Close(c.fd) // nothing was written through this descriptor
		c.fd = -1
	}
}

// counterHint explains the usual causes of errNoCounter.
func counterHint() string {
	paranoid, err := os.ReadFile("/proc/sys/kernel/perf_event_paranoid")
	level := "unknown"
	if err == nil {
		level = strings.TrimSpace(string(paranoid))
	}
	return "perfbench needs a hardware instruction counter (perf_event_open with ptrace); " +
		"check that the host exposes a PMU and that kernel.perf_event_paranoid (now " + level + ") is at most 2"
}
