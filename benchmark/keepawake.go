package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"syscall"
	"unsafe"
)

// Keep-awake helpers. In this sandbox (a 2-vCPU microVM) a vCPU that goes
// idle is halted by the hypervisor, and waking it — which every hand-off
// of parallel work to a parked thread needs — takes from microseconds to
// milliseconds depending on what the host is doing; for seconds at a time
// the second core is in effect unavailable to short parallel sections,
// and timings double. One helper process per CPU, spinning at SCHED_IDLE,
// keeps the vCPUs from halting. The kernel runs a SCHED_IDLE task only
// when nothing else wants the CPU and preempts it the moment something
// does, so the helpers take no time from the program or the generator.
// (Measured on the seed commit: run-to-run spread of codec_field's
// compress_mbps 23 % without them, 6 % with.)

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// keepAwakeMain is the helper's whole life: drop to SCHED_IDLE, spin. If
// the policy cannot be set it exits at once — spinning at normal priority
// would take a core from the measurement.
func keepAwakeMain() {
	runtime.LockOSThread()
	debug.SetGCPercent(-1)
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		os.Exit(3)
	}
	// An orphaned helper would spin for ever: leave when the parent has.
	parent := os.Getppid()
	for i := 0; ; i++ {
		if i&(1<<24-1) == 0 && os.Getppid() != parent {
			os.Exit(0)
		}
	}
}

// startKeepAwake launches one helper per CPU by re-executing this binary,
// and returns the function that stops them and waits for them to be gone.
// A helper that cannot start is skipped: the run is then merely noisier.
func startKeepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var helpers []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-keepawake")
		if cmd.Start() == nil {
			helpers = append(helpers, cmd)
		}
	}
	return func() {
		for _, h := range helpers {
			h.Process.Kill()
			h.Wait()
		}
	}
}
