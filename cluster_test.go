package ichannels_test

// Multi-process cluster conformance suite: build the real CLI binary,
// spawn a coordinator and worker processes over loopback, run a
// checked-in sweep spec distributed, and assert the streamed cell lines
// and the final aggregate carry exactly the bytes a serial local run
// produces — including with a worker SIGKILLed mid-sweep. This is the
// distributed tier's end of the determinism contract, exercised the way
// a user deploys it (real processes, real sockets), not through
// httptest.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const clusterSpec = "examples/sweeps/specs/table6_processor_mitigation.json"

// serialRef runs the cluster spec serially in one local process, once
// per test binary — the reference every distributed run must match.
var serialRef struct {
	sync.Once
	cells [][]byte // per-cell result bytes, stream order
	seeds []int64
	agg   []byte // the trailing aggregate line, verbatim
}

func clusterReference(t *testing.T) ([][]byte, []int64, []byte) {
	t.Helper()
	serialRef.Do(func() {
		lines := runCLI(t, "sweep", "run", clusterSpec, "-ndjson", "-parallel", "1")
		for _, ln := range lines[:len(lines)-1] {
			wl, res := parseWireLine(t, ln)
			serialRef.cells = append(serialRef.cells, res)
			serialRef.seeds = append(serialRef.seeds, wl.Seed)
		}
		serialRef.agg = lines[len(lines)-1]
	})
	if serialRef.agg == nil {
		t.Fatal("serial reference run failed (see the first failing test)")
	}
	return serialRef.cells, serialRef.seeds, serialRef.agg
}

// workerProc is one spawned `ichannels serve -worker` process.
type workerProc struct {
	url string
	cmd *exec.Cmd
}

var bannerRE = regexp.MustCompile(`serving the scenario API on (http://[^ ]+) `)

// startWorker spawns a worker process on an ephemeral loopback port and
// parses the bound address from its startup banner.
func startWorker(t *testing.T, extra ...string) *workerProc {
	t.Helper()
	return startServe(t, append([]string{"-worker"}, extra...)...)
}

// startServe spawns `ichannels serve -addr 127.0.0.1:0` with extra
// flags and parses the bound address from its startup banner.
func startServe(t *testing.T, extra ...string) *workerProc {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(buildCLI(t), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := bannerRE.FindStringSubmatch(sc.Text()); m != nil {
				urlCh <- m[1]
				break
			}
		}
		// Keep draining so the worker never blocks on a full pipe.
		io.Copy(io.Discard, stderr)
	}()
	select {
	case url := <-urlCh:
		return &workerProc{url: url, cmd: cmd}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not print its startup banner")
		return nil
	}
}

// distStats is the coordinator's `dist:` stderr summary line,
// including the store-tier tallies appended after the semicolon.
type distStats struct {
	remote, redispatched, corrupt, localFallback           int
	storeHits, storeMisses, storeTransient, storePermanent int
}

// storeErrors is the combined degraded-operation count, any class.
func (ds distStats) storeErrors() int { return ds.storeTransient + ds.storePermanent }

func parseDistStats(t *testing.T, stderr string) distStats {
	t.Helper()
	for _, ln := range strings.Split(stderr, "\n") {
		var ds distStats
		if _, err := fmt.Sscanf(ln, "dist: %d remote, %d redispatched, %d corrupt, %d local fallback; store: %d hits, %d misses, %d transient, %d permanent",
			&ds.remote, &ds.redispatched, &ds.corrupt, &ds.localFallback,
			&ds.storeHits, &ds.storeMisses, &ds.storeTransient, &ds.storePermanent); err == nil {
			return ds
		}
	}
	t.Fatalf("no dist stats line in coordinator stderr:\n%s", stderr)
	return distStats{}
}

// assertClusterStream compares a distributed run's NDJSON stream with
// the serial reference: per-cell result bytes and seeds, and the final
// aggregate line byte-for-byte.
func assertClusterStream(t *testing.T, surface string, lines [][]byte) {
	t.Helper()
	cells, seeds, agg := clusterReference(t)
	if len(lines) != len(cells)+1 {
		t.Fatalf("%s: %d lines, want %d cells + aggregate", surface, len(lines), len(cells))
	}
	for i, ln := range lines[:len(lines)-1] {
		wl, res := parseWireLine(t, ln)
		if wl.Seed != seeds[i] {
			t.Errorf("%s cell %d: seed %d, want %d", surface, i, wl.Seed, seeds[i])
		}
		if !bytes.Equal(res, cells[i]) {
			t.Errorf("%s cell %d result differs from serial run:\n%s\nwant:\n%s", surface, i, res, cells[i])
		}
	}
	if got := lines[len(lines)-1]; !bytes.Equal(got, agg) {
		t.Errorf("%s aggregate differs from serial run:\n%s\nwant:\n%s", surface, got, agg)
	}
}

// TestClusterConformance: a coordinator process dispatching to two
// worker processes over loopback emits byte-identical cell results and
// aggregate to a serial single-process run, with every cell served
// remotely and zero verification rejections.
func TestClusterConformance(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)

	cmd := exec.Command(buildCLI(t), "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4",
		"-workers", w1.url+","+w2.url)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("coordinator: %v\nstderr: %s", err, stderr.String())
	}
	var lines [][]byte
	for _, ln := range bytes.Split(stdout.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(ln)) > 0 {
			lines = append(lines, ln)
		}
	}
	assertClusterStream(t, "cluster", lines)

	cells, _, _ := clusterReference(t)
	ds := parseDistStats(t, stderr.String())
	if ds.remote != len(cells) || ds.localFallback != 0 {
		t.Errorf("dist stats %+v: want all %d cells served remotely", ds, len(cells))
	}
	if ds.corrupt != 0 {
		t.Errorf("dist stats %+v: healthy workers must produce zero verification rejections", ds)
	}
	if ds.storeHits != 0 || ds.storeMisses != 0 || ds.storeErrors() != 0 {
		t.Errorf("dist stats %+v: a storeless coordinator must report zero store activity", ds)
	}
}

// TestClusterWorkerKilled: SIGKILL one of two workers while the
// coordinator is mid-sweep. Its in-flight cells are redispatched (or
// recomputed locally if the fleet thrashes) and the emitted bytes are
// unchanged — the coordinator exits 0 with the serial run's output.
func TestClusterWorkerKilled(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)

	cmd := exec.Command(buildCLI(t), "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4",
		"-workers", w1.url+","+w2.url)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var lines [][]byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ln := append([]byte(nil), bytes.TrimSpace(sc.Bytes())...)
		if len(ln) == 0 {
			continue
		}
		lines = append(lines, ln)
		if len(lines) == 5 {
			// Mid-sweep: cells are streaming, more are in flight on
			// both workers. Kill one without warning.
			if err := w1.cmd.Process.Kill(); err != nil {
				t.Fatalf("killing worker: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading coordinator stdout: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("coordinator exited abnormally after worker death: %v\nstderr: %s", err, stderr.String())
	}
	assertClusterStream(t, "cluster-killed", lines)

	// The dead worker's cells must have been recovered somewhere —
	// redispatched to the survivor or recomputed locally — and none of
	// it may surface as corruption.
	ds := parseDistStats(t, stderr.String())
	if ds.corrupt != 0 {
		t.Errorf("dist stats %+v: a killed worker must not register as corruption", ds)
	}
	cells, _, _ := clusterReference(t)
	if ds.remote+ds.localFallback != len(cells) {
		t.Errorf("dist stats %+v: remote + local fallback should cover all %d cells", ds, len(cells))
	}
}

// TestClusterSharedStore: one process serves its corpus over HTTP
// (`serve -store DIR -share`) and a separate coordinator process uses
// it as its -store by URL — no shared filesystem. The cold run
// populates the corpus over the wire; the warm run streams every cell
// cached, byte-identical to the serial reference.
func TestClusterSharedStore(t *testing.T) {
	storeDir := t.TempDir()
	host := startServe(t, "-store", storeDir, "-share")

	args := []string{"sweep", "run", clusterSpec, "-ndjson", "-parallel", "4", "-store", host.url, "-resume"}
	cold := runCLI(t, args...)
	assertClusterStream(t, "shared-cold", cold)
	for i, ln := range cold[:len(cold)-1] {
		if wl, _ := parseWireLine(t, ln); wl.Cached {
			t.Errorf("shared-cold cell %d marked cached against an empty corpus", i)
		}
	}

	warm := runCLI(t, args...)
	assertClusterStream(t, "shared-warm", warm)
	for i, ln := range warm[:len(warm)-1] {
		if wl, _ := parseWireLine(t, ln); !wl.Cached {
			t.Errorf("shared-warm cell %d not served from the remote corpus", i)
		}
	}

	// The corpus physically lives on the serving process's disk.
	cells, _, _ := clusterReference(t)
	ls := runCLI(t, "store", "ls", storeDir)
	if got := string(ls[len(ls)-1]); !strings.HasPrefix(got, fmt.Sprintf("%d entries", len(cells))) {
		t.Errorf("host corpus holds %q, want %d entries", got, len(cells))
	}
}

// TestServeDrainsOnSIGTERM stops a serve process the way a process
// manager does. SIGTERM must take the graceful-shutdown path (drain,
// exit 0), not kill the process.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM delivery on windows")
	}
	w := startServe(t)
	resp, err := http.Get(w.url + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/experiments: %s", resp.Status)
	}
	if err := w.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v after SIGTERM, want status 0", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit within 30 s of SIGTERM")
	}
}
