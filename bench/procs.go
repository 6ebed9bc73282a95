package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a child gets to drain after SIGTERM before it is
// killed.
const stopGrace = 10 * time.Second

// proc is one child process the benchmark started. Every proc is in the
// children set from spawn until stop, so stopAll can end them on any exit
// path.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

var children struct {
	sync.Mutex
	set map[*proc]struct{}
}

// spawn starts cmd and registers it. The caller owns cmd's stdio.
func spawn(name string, cmd *exec.Cmd) (*proc, error) {
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.set == nil {
		children.set = make(map[*proc]struct{})
	}
	children.set[p] = struct{}{}
	children.Unlock()
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// spawnServer starts one of the repository's serving binaries with its
// output appended to a log file under logDir.
func spawnServer(logDir, bin string, args ...string) (*proc, error) {
	name := filepath.Base(bin)
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	return spawn(name, cmd)
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() (float64, error) { return peakRSSMB(p.cmd.Process.Pid) }

func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}

// stop ends the process: SIGTERM, wait for it to drain, kill it if it
// does not. It returns once the process has been waited for.
func (p *proc) stop() {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // a process that just exited is fine
		select {
		case <-p.done:
		case <-time.After(stopGrace):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	children.Lock()
	delete(children.set, p)
	children.Unlock()
}

// stopAll ends every child still registered; main defers it and the
// signal handler calls it, so no exit path leaves a process behind.
func stopAll() {
	children.Lock()
	ps := make([]*proc, 0, len(children.set))
	for p := range children.set {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls probe until it succeeds, the process dies or timeout
// passes.
func waitReady(p *proc, timeout time.Duration, probe func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := probe()
		if err == nil {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v", p.name, p.err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %w", p.name, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// buildServers compiles cmd/qserve and cmd/qshard from the module at root
// into binDir.
func buildServers(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/qserve", "./cmd/qshard")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build qserve qshard: %w\n%s", err, out)
	}
	return nil
}

// childEnv names the environment variable that turns this binary (or the
// test binary, via TestMain) into one of the benchmark's own child
// processes: fixture generation and the measuring children of the
// in-process workloads.
const childEnv = "QG_BENCH_CHILD"

// runChild re-executes this binary as child kind, feeding it spec as JSON
// on stdin and decoding its stdout into out. The child's stderr passes
// through.
func runChild(kind string, spec, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+kind)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(in), &stdout, os.Stderr
	p, err := spawn("bench "+kind, cmd)
	if err != nil {
		return err
	}
	<-p.done
	p.stop()
	if p.err != nil {
		var ee *exec.ExitError
		if errors.As(p.err, &ee) {
			return fmt.Errorf("child %s: %s", kind, ee.ProcessState)
		}
		return fmt.Errorf("child %s: %w", kind, p.err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("child %s: bad result: %w", kind, err)
	}
	return nil
}
