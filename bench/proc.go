package main

import (
	"bufio"
	"bytes"
	"errors"
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

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux configuration Go supports.
const clockTicks = 100

// procStats is the kernel's account of one finished pka process.
type procStats struct {
	wall     time.Duration // exec to exit
	cpu      time.Duration // user + system
	maxRSSKB int64
}

// childAttr makes a child process die with the benchmark, so a killed
// benchmark never leaves a server behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// runPka runs one pka subcommand to completion in the work directory.
func (r *runner) runPka(args ...string) (procStats, error) {
	cmd := exec.Command(r.pka, args...)
	cmd.Dir = r.work
	cmd.SysProcAttr = childAttr()
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procStats{}, fmt.Errorf("pka %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return procStats{}, errors.New("no rusage for the pka process")
	}
	return procStats{
		wall:     wall,
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}, nil
}

// server is one running `pka serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	// drained is closed once the process's stdout reached EOF.
	drained chan struct{}
}

// startServer launches `pka serve` on a free loopback port and returns once
// the process has announced the address it listens on.
func (r *runner) startServer(args ...string) (*server, error) {
	full := append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)
	s := &server{cmd: exec.Command(r.pka, full...), drained: make(chan struct{})}
	s.cmd.Dir = r.work
	s.cmd.SysProcAttr = childAttr()
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pka serve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !announced && strings.HasPrefix(line, "serving ") && i >= 0 {
				addr <- line[i+len(" on "):]
				announced = true
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.drained:
		err := s.cmd.Wait()
		return nil, fmt.Errorf("pka serve exited before listening (%v): %s", err, strings.TrimSpace(s.stderr.String()))
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, errors.New("pka serve did not announce its address within 120 s")
	}
}

// stop shuts the server down with SIGTERM, as an operator would, and
// waits for the process to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling pka serve: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("pka serve: %v: %s", err, strings.TrimSpace(s.stderr.String()))
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("pka serve ignored SIGTERM for 15 s")
	}
}

// kill ends the process without ceremony and reaps it; used on error paths.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait()
}

// cpu returns the server's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat CPU times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSKB returns the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSKB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// coldStart times one server start: exec until /readyz answers 200 and
// the first query has been answered.
func (r *runner) coldStart(first []byte, args ...string) (time.Duration, *server, error) {
	start := time.Now()
	s, err := r.startServer(args...)
	if err != nil {
		return 0, nil, err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 120*time.Second {
			s.kill()
			return 0, nil, errors.New("pka serve never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	body, status, err := post(client, s.base+"/v1/query", first)
	if err != nil || status != http.StatusOK {
		s.kill()
		return 0, nil, fmt.Errorf("first query: status %d, %v: %s", status, err, body)
	}
	return time.Since(start), s, nil
}

// setup measures the workload's set-up time: n cold starts of the server
// it will use, reporting the median. The last server is returned running.
func (r *runner) setup(n int, first []byte, args ...string) (*server, error) {
	var times []float64
	var s *server
	for i := 0; i < n; i++ {
		d, srv, err := r.coldStart(first, args...)
		r.res.ops(1, 0)
		if err != nil {
			r.res.ops(0, 1)
			return nil, fmt.Errorf("cold start: %w", err)
		}
		times = append(times, d.Seconds())
		if i < n-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		} else {
			s = srv
		}
	}
	r.res.e2e("setup_s", sampleMetric(times, 0.5, "s"))
	return s, nil
}

// post sends one JSON body and returns the response body and status.
func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// get fetches one URL and returns the body and status.
func get(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}
