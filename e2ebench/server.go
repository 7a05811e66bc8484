package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accqoc/internal/server"
)

// serverProc is one accqoc-server child process and the HTTP client the
// benchmark talks to it with. The client's transport holds at most two
// connections, shared by the load generators and the admin calls.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
}

// The server's defaults the in-process replay mirrors: its default device
// and the -fidelity, -max-iter, -usage-history and -shards flags. The
// server boots without those flags, so these must equal its own defaults;
// the replay compares every rebuilt response with the served one, so a
// drift between the two shows as replay mismatches.
const (
	deviceName          = "melbourne"
	targetInfidelity    = 1e-3
	defaultMaxIter      = 600
	defaultUsageHistory = 256
	defaultShards       = 16
)

// bootServer starts the server binary with its default flags plus the
// listen address and extra (the workload's own deployment settings), and
// waits until /healthz answers 200.
func bootServer(bin string, extra []string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = nil, nil
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &serverProc{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		exited: make(chan error, 1),
	}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, fmt.Errorf("server exited during boot: %v", err)
		default:
		}
		if st, _, _, err := s.do("GET", "/healthz", nil); err == nil && st == http.StatusOK {
			return s, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.stop()
	return nil, errors.New("server not healthy within 30s")
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop terminates the server and waits for it to exit (SIGKILL after a
// grace period).
func (s *serverProc) stop() {
	if s == nil {
		return
	}
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// do runs one HTTP request and returns the status, body and latency.
func (s *serverProc) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	begin := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(begin), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(begin), err
}

// getJSON fetches an admin endpoint into v.
func (s *serverProc) getJSON(path string, v any) error {
	st, data, _, err := s.do("GET", path, nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, st, data)
	}
	return json.Unmarshal(data, v)
}

func (s *serverProc) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	return st, s.getJSON("/v1/library/stats", &st)
}

func (s *serverProc) devices() (server.DevicesResponse, error) {
	var d server.DevicesResponse
	return d, s.getJSON("/v1/devices", &d)
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}
