package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// requestTimeout bounds every request: a server that stops answering
// fails the request instead of hanging the run.
const requestTimeout = 60 * time.Second

// readyTimeout bounds the wait for /readyz.
const readyTimeout = 150 * time.Second

// Server is one mdwd process under test.
type Server struct {
	URL string
	// Setup is the time from exec to the first 200 from /readyz.
	Setup time.Duration

	cmd     *exec.Cmd
	log     *os.File
	logFrom int64         // size of the log when the process started
	done    chan struct{} // closed when the process has exited
	reaper  sync.WaitGroup
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// StartServer execs mdwd on a free loopback port with the given flags,
// appends its output to logPath and waits until /readyz answers 200.
func StartServer(mdwd, logPath string, flags ...string) (*Server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := logf.Stat()
	if err != nil {
		logf.Close()
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &Server{URL: "http://" + addr, log: logf, logFrom: info.Size(), done: make(chan struct{})}
	s.cmd = exec.Command(mdwd, append([]string{"-addr", addr}, flags...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s.reaper.Add(1)
	go func() {
		defer s.reaper.Done()
		_ = s.cmd.Wait() // the exit status of a killed server says nothing
		close(s.done)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for {
		if resp, err := client.Get(s.URL + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Setup = time.Since(start)
				return s, nil
			}
		}
		if !s.Alive() {
			s.Kill()
			return nil, fmt.Errorf("mdwd exited before it was ready; see %s", logPath)
		}
		if time.Since(start) > readyTimeout {
			s.Kill()
			return nil, fmt.Errorf("mdwd not ready after %s; see %s", readyTimeout, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Settle implements Instance: mdwd logs "..., ready" once its census is
// done.
func (s *Server) Settle() error {
	for start := time.Now(); time.Since(start) < readyTimeout; time.Sleep(5 * time.Millisecond) {
		data, err := os.ReadFile(s.log.Name())
		if err != nil {
			return err
		}
		if int64(len(data)) > s.logFrom && bytes.Contains(data[s.logFrom:], []byte(", ready\n")) {
			return nil
		}
		if !s.Alive() {
			break
		}
	}
	return fmt.Errorf("mdwd did not log that it is ready; see %s", s.log.Name())
}

// Alive reports whether the process is still running.
func (s *Server) Alive() bool {
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// Kill sends SIGKILL and waits until the process has ended. Nothing the
// server buffered in user space survives it.
func (s *Server) Kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	s.reaper.Wait()
	s.log.Close() //mdwlint:allow syncerr the file holds the child's output; this process wrote nothing to it
}

// procStatusKB reads one "Key:\tvalue kB" line of /proc/<pid>/status.
func (s *Server) procStatusKB(key string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb
			}
		}
	}
	return 0
}

// PeakRSSMB is the server's resident-set high-water mark.
func (s *Server) PeakRSSMB() float64 { return s.procStatusKB("VmHWM") / 1024 }

// CPUSeconds is the user plus system CPU time the server has used, in
// the 10 ms ticks of /proc/<pid>/stat.
func (s *Server) CPUSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after ") ".
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// dirSizeMB sums the file sizes under dir.
func dirSizeMB(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// Metrics is one scrape of /api/metrics: series name, labels included as
// rendered, to value.
type Metrics map[string]float64

// ParseMetrics reads the Prometheus text exposition format.
func ParseMetrics(r io.Reader) Metrics {
	m := Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// Sum adds up every series whose name starts with prefix: all label
// combinations of one family.
func (m Metrics) Sum(prefix string) float64 {
	var s float64
	for k, v := range m {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			s += v
		}
	}
	return s
}

// Sub returns m minus earlier, series by series.
func (m Metrics) Sub(earlier Metrics) Metrics {
	out := Metrics{}
	for k, v := range m {
		out[k] = v - earlier[k]
	}
	return out
}

// Scrape fetches and parses baseURL/api/metrics.
func Scrape(baseURL string) (Metrics, error) {
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	resp, err := client.Get(baseURL + "/api/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /api/metrics: %s", resp.Status)
	}
	return ParseMetrics(resp.Body), nil
}
