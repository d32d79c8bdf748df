//go:build unix && !aix && !solaris

package ichannels_test

// Many writers, one corpus: CLI sweeps running at the same time against
// one fresh store directory each append to a segment of their own, and
// every stream and the corpus they leave behind match a serial run.
// It builds only where the store has its segment lock; elsewhere the
// rule is one writer per directory.

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"testing"
)

func TestConcurrentSweepsShareOneStore(t *testing.T) {
	cells, seeds, agg := clusterReference(t)
	storeDir := t.TempDir()

	// Every writer starts before any is waited on, so their store opens
	// and appends overlap.
	const writers = 2
	cmds := make([]*exec.Cmd, writers)
	outs := make([]*bytes.Buffer, writers)
	errs := make([]*bytes.Buffer, writers)
	for i := range cmds {
		cmd := exec.Command(buildCLI(t), "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4", "-store", storeDir, "-resume")
		outs[i], errs[i] = &bytes.Buffer{}, &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = outs[i], errs[i]
		cmds[i] = cmd
	}
	for _, cmd := range cmds {
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("writer %d: %v\nstderr: %s", i, err, errs[i])
		}
	}

	for i, out := range outs {
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		if len(lines) != len(cells)+1 {
			t.Fatalf("writer %d emitted %d lines, want %d cells + aggregate", i, len(lines), len(cells))
		}
		for j, ln := range lines[:len(cells)] {
			wl, res := parseWireLine(t, ln)
			if wl.Seed != seeds[j] || !bytes.Equal(res, cells[j]) {
				t.Errorf("writer %d cell %d differs from the serial run:\n%s\nwant seed %d:\n%s", i, j, res, seeds[j], cells[j])
			}
		}
		if !bytes.Equal(lines[len(cells)], agg) {
			t.Errorf("writer %d aggregate differs from the serial run:\n%s\nwant:\n%s", i, lines[len(cells)], agg)
		}
	}

	verify := runCLI(t, "store", "verify", storeDir)
	want := fmt.Sprintf("%d entries, ", len(cells))
	if last := string(verify[len(verify)-1]); !strings.HasPrefix(last, want) || !strings.Contains(last, " 0 corrupt") {
		t.Fatalf("store verify after concurrent writers: %s, want %s… 0 corrupt", last, want)
	}
}
