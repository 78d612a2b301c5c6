package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live holds the running daemons so that a signal to the benchmark can
// stop them before it exits.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// stopAllOnSignal stops every live daemon and exits when the benchmark
// receives SIGINT or SIGTERM.
func stopAllOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		live.Lock()
		ds := make([]*daemon, 0, len(live.set))
		for d := range live.set {
			ds = append(ds, d)
		}
		live.Unlock()
		for _, d := range ds {
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		os.Exit(1)
	}()
}

// daemon is one mlserved child process listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // cmd.Wait's result, valid after exited closes
	http    *http.Client
}

// startDaemon launches mlserved with default flags (plus -state-dir when
// stateDir is set) and returns once /readyz answers 200.
func startDaemon(bin, stateDir string, logw io.Writer) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logw
	cmd.Stderr = logw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mlserved: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.forget()
			return nil, fmt.Errorf("mlserved exited before ready: %v", d.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("mlserved not ready after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within 30s. It returns only once the process is gone.
func (d *daemon) stop() {
	d.forget()
	d.http.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) forget() {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// varz is the subset of GET /varz the benchmark reads.
type varz struct {
	Rejected        int64 `json:"rejected"`
	DegradedResults int64 `json:"degraded_results"`
	Cache           struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Sessions struct {
		ResidentBytes int64 `json:"resident_bytes"`
		Repairs       struct {
			Boundary int64 `json:"boundary"`
			Full     int64 `json:"full"`
			VCycle   int64 `json:"vcycle"`
		} `json:"repairs"`
		WALErrors int64 `json:"wal_errors"`
	} `json:"sessions"`
}

func (d *daemon) varz(ctx context.Context) (*varz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/varz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /varz: %w", err)
	}
	defer resp.Body.Close()
	var v varz
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode /varz: %w", err)
	}
	return &v, nil
}
