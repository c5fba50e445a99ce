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
	"sync"
	"syscall"
	"time"
)

// server is one cmd/serve child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	drained sync.WaitGroup // stderr drain goroutine
}

// startServer execs the serve binary on a free loopback port and waits for
// its "serving on" line. It returns the time from exec to that line: the
// server's set-up time (world build, training, table packing, listen).
func startServer(bin string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// A benchmark killed before stop still takes its server down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, fmt.Errorf("serve stderr pipe: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start serve: %w", err)
	}
	s := &server{cmd: cmd}
	sc := bufio.NewScanner(stderr)
	var log []string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "serving on "); ok {
			s.addr = strings.TrimSpace(rest)
			break
		}
		log = append(log, line)
	}
	setup := time.Since(start)
	if s.addr == "" {
		s.stop()
		return nil, 0, fmt.Errorf("serve exited before serving: %s", strings.Join(log, "; "))
	}
	// Keep draining stderr so the child never blocks on a full pipe; the
	// goroutine ends when the child exits and the pipe closes.
	s.drained.Add(1)
	go func() {
		defer s.drained.Done()
		_, _ = io.Copy(io.Discard, stderr)
	}()
	return s, setup, nil
}

// stop sends SIGTERM (cmd/serve drains and exits 0), falls back to SIGKILL
// after a grace period, and waits for the process and the drain goroutine.
func (s *server) stop() {
	if s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.drained.Wait()
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// client is the load generator's HTTP client: at most conns keep-alive
// connections to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// annotate posts one pre-encoded request body and returns the status and
// response body.
func (c *client) annotate(body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+"/v1/annotate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statz is the subset of cmd/serve's /statz the benchmark reads.
type statz struct {
	Requests int64   `json:"requests"`
	StemMBps float64 `json:"stem_mbps"`
	RankMBps float64 `json:"rank_mbps"`
	Cache    *struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Coalesced int64 `json:"coalesced"`
		Entries   int   `json:"entries"`
		Capacity  int   `json:"capacity"`
	} `json:"cache"`
}

func (c *client) statz() (statz, error) {
	var st statz
	resp, err := c.hc.Get(c.base + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statz: %w", err)
	}
	if st.Cache == nil {
		return st, fmt.Errorf("statz: no cache section")
	}
	return st, nil
}
