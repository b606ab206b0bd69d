package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every server process the benchmark starts, so that any exit
// path (error, signal, normal end) stops and reaps all of them.
type procs struct {
	bin, work string
	mu        sync.Mutex
	live      []*proc
}

type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// freeAddr picks a loopback port for a new listener.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches bin with args plus -addr on a fresh loopback port, and
// returns once it answers /healthz.
func (ps *procs) start(name, bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(ps.work, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(ps.bin, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed from outside must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()
	if err := waitHealthy(p); err != nil {
		ps.stop(p)
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return p, nil
}

func waitHealthy(p *proc) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("exited before becoming healthy (see %s.log)", p.name)
		default:
		}
		resp, err := hc.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not healthy after 30s")
}

// stop ends p (SIGTERM, then SIGKILL after 5s) and waits for it.
func (ps *procs) stop(p *proc) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.live {
		if q == p {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			break
		}
	}
}

// stopAll stops every process still running.
func (ps *procs) stopAll() {
	ps.mu.Lock()
	live := append([]*proc(nil), ps.live...)
	ps.mu.Unlock()
	for _, p := range live {
		ps.stop(p)
	}
}

// statusMB reads a memory field of /proc/<pid>/status (such as VmHWM) in MB.
func statusMB(p *proc, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, p.cmd.Process.Pid)
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ).
const clockTick = 10 * time.Millisecond

// cpuTime reads the user plus system CPU time a process has used, from
// /proc/<pid>/stat. The kernel accounts it per task from the scheduler's
// clock, which leaves out the time the hypervisor ran other guests (steal)
// and the time the process waited for a core.
func cpuTime(p *proc) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	i := strings.LastIndexByte(string(raw), ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", p.cmd.Process.Pid)
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", p.cmd.Process.Pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}
