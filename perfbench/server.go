package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sstore"
	"sstore/client"
	"sstore/internal/types"
)

// serverProc is one sstore-server child process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	ready   time.Duration // exec → "listening on" line
	drained chan struct{} // closed once the child's stdout hits EOF
}

// startServer execs the server on an ephemeral loopback port and waits
// for its readiness line.
func startServer(bin string, args ...string) (*serverProc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !found {
				found = true
				addrc <- line[i+len("listening on "):]
			}
		}
	}()
	select {
	case addr := <-addrc:
		s.ready = time.Since(t0)
		s.addr = addr
		return s, nil
	case <-s.drained:
		err := cmd.Wait()
		return nil, fmt.Errorf("server exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("server not listening after 60s")
	}
}

// kill SIGKILLs the server and waits for it to exit.
func (s *serverProc) kill() {
	//lint:allow errdrop -- the process may already have exited; Wait reaps it either way
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait() // exit status of a killed process is always an error
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tcpTarget drives a server over one client connection per partition.
type tcpTarget struct {
	cl [conns]*client.Client
}

func dialTarget(addr string) (*tcpTarget, error) {
	t := &tcpTarget{}
	for i := range t.cl {
		c, err := client.Dial(addr)
		if err != nil {
			t.close()
			return nil, err
		}
		t.cl[i] = c
	}
	return t, nil
}

func (t *tcpTarget) close() {
	for _, c := range t.cl {
		if c != nil {
			_ = c.Close() // the server is killed next; nothing is in flight
		}
	}
}

func (t *tcpTarget) ingest(conn int, stream string, id int64, rows []types.Row) (<-chan error, error) {
	return t.cl[conn].IngestAsync(stream, &sstore.Batch{ID: id, Rows: rows})
}

func (t *tcpTarget) call(conn int, sp string, params types.Row) ([]types.Row, error) {
	res, err := t.cl[conn].Call(sp, params...)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (t *tcpTarget) read(conn int, pid int, sql string, params types.Row) ([]types.Row, error) {
	res, err := t.cl[conn].Query(pid, sql, params...)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (t *tcpTarget) drain() error { return t.cl[0].Drain() }
