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
	"strings"
	"syscall"
	"time"
)

// daemon is one running qccdd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	// setup is the time from exec to the first healthy /healthz.
	setup time.Duration
}

// scrubbedEnv is the harness environment minus the Go runtime knobs, so a
// daemon runs with its defaults unless a workload sets one explicitly.
func scrubbedEnv(extra []string) []string {
	var env []string
	for _, kv := range os.Environ() {
		switch k, _, _ := strings.Cut(kv, "="); k {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
		default:
			env = append(env, kv)
		}
	}
	return append(env, extra...)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin on a free loopback port and waits until it
// answers /healthz. The child is killed if the harness dies first.
func startDaemon(bin string, args, env []string) (*daemon, error) {
	var lastErr error
	// A port picked as free can be taken before the child binds it;
	// retrying with another port covers that race.
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Env = scrubbedEnv(env)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		d := &daemon{
			cmd:    cmd,
			base:   "http://" + addr,
			client: &http.Client{Transport: &http.Transport{}, Timeout: 150 * time.Second},
			exited: make(chan struct{}),
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() {
			cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.waitHealthy(start); lastErr == nil {
			d.setup = time.Since(start)
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func (d *daemon) waitHealthy(start time.Time) error {
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for time.Since(start) < 30*time.Second {
		select {
		case <-d.exited:
			return fmt.Errorf("qccdd exited during start-up: %v", d.cmd.ProcessState)
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("qccdd not healthy after 30s")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, escalates to SIGKILL after ten seconds, and returns
// once the process has exited.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// sweep posts one sweep request and reads the whole NDJSON response; the
// response ends right after the summary line.
func (d *daemon) sweep(body []byte) ([]byte, error) {
	resp, err := d.client.Post(d.base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// counters are the outcome-store figures of GET /v1/cache that a pass
// must reconcile with.
type counters struct {
	Computes   uint64 `json:"computes"`
	DiskReads  uint64 `json:"disk_reads"`
	DiskWrites uint64 `json:"disk_writes"`
}

func (d *daemon) cacheCounters() (counters, error) {
	resp, err := d.client.Get(d.base + "/v1/cache")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Store struct {
			Computes uint64 `json:"computes"`
			Disk     *struct {
				Reads  uint64 `json:"reads"`
				Writes uint64 `json:"writes"`
			} `json:"disk"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return counters{}, fmt.Errorf("GET /v1/cache: %w", err)
	}
	c := counters{Computes: body.Store.Computes}
	if body.Store.Disk != nil {
		c.DiskReads, c.DiskWrites = body.Store.Disk.Reads, body.Store.Disk.Writes
	}
	return c, nil
}
