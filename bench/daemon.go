package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

const (
	outDir = "bench/out" // everything the benchmark writes lives here
	binDir = outDir + "/bin"

	indexShards = 2
)

// buildBinaries builds the three programs the benchmark drives from the
// tree it is run in.
func buildBinaries() (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", binDir+"/", "./cmd/wwt-corpus", "./cmd/wwt-index", "./cmd/wwt-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// buildIndex generates the corpus with wwt-corpus and indexes it with
// wwt-index under dir, returning the index directory.
func buildIndex(dir string, seed int64, scale float64) (idx string, corpus, index time.Duration, err error) {
	crawl := filepath.Join(dir, "crawl")
	idx = filepath.Join(dir, "idx")
	start := time.Now()
	if err := run(binDir+"/wwt-corpus", "-out", crawl, "-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64)); err != nil {
		return "", 0, 0, err
	}
	corpus = time.Since(start)
	start = time.Now()
	if err := run(binDir+"/wwt-index", "-crawl", crawl, "-out", idx, "-shards", strconv.Itoa(indexShards)); err != nil {
		return "", 0, 0, err
	}
	// The crawl is 128 MB in 31k files. Unlinking it now drops its dirty
	// pages, and the sync writes out what remains, so that the kernel's
	// write-back does not land in the measured window.
	if err := os.RemoveAll(crawl); err != nil {
		return "", 0, 0, err
	}
	syscall.Sync()
	return idx, corpus, time.Since(start), nil
}

func run(name string, args ...string) error {
	if out, err := exec.Command(name, args...).CombinedOutput(); err != nil {
		return fmt.Errorf("%s: %w\n%s", name, err, out)
	}
	return nil
}

// daemon is a running wwt-serve subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed when the process has been waited for
	once sync.Once
}

// startDaemon starts wwt-serve on idx at a free loopback port and waits
// until /healthz answers. -plan-coeffs= keeps it from reading or writing
// a calibration sidecar, so runs are independent.
func startDaemon(idx, logPath string) (*daemon, time.Duration, error) {
	start := time.Now()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(binDir+"/wwt-serve", "-idx", idx, "-addr", addr, "-plan-coeffs=")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			out, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("wwt-serve exited before it was ready:\n%s", out)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("wwt-serve not ready after 60s")
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain with SIGTERM, kills it if it has not
// exited within five seconds, and returns once it is gone. It may be
// called more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
	})
}

// procStat is what the benchmark reads about a process from /proc.
type procStat struct {
	CPU                    time.Duration // utime + stime
	MinorFaults, MajFaults uint64
	RSSMB, PeakRSSMB       float64 // VmRSS, VmHWM
}

// userHZ is the unit of the times in /proc/<pid>/stat; it is 100 on
// every Linux platform Go supports.
const userHZ = 100

func readProc(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	// f[0] is field 3 (state): minflt is field 10, majflt 12, utime 14, stime 15.
	num := func(field int) uint64 {
		v, _ := strconv.ParseUint(f[field-3], 10, 64)
		return v
	}
	ps.MinorFaults, ps.MajFaults = num(10), num(12)
	ps.CPU = time.Duration(num(14)+num(15)) * time.Second / userHZ

	st, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	defer st.Close()
	sc := bufio.NewScanner(st)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), ":")
		kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		switch k {
		case "VmRSS":
			ps.RSSMB = kb / 1024
		case "VmHWM":
			ps.PeakRSSMB = kb / 1024
		}
	}
	return ps, sc.Err()
}

// scrapeMetrics reads the daemon's /metrics into a map keyed by the
// sample name including its labels, e.g. `wwt_cache_hits_total{cache="views"}`.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			// A background merge may unlink a segment mid-walk.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}
