package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"addict/cmd/internal/cmdtest"
)

// TestAxesListing checks the -axes flag parses and documents every grid
// axis.
func TestAxesListing(t *testing.T) {
	exe := cmdtest.Build(t)
	stdout, _ := cmdtest.Run(t, exe, "-axes")
	for _, axis := range []string{"workload", "mech", "l1i", "cores", "threads", "admit", "synth", "theta", "write", "hot"} {
		if !strings.Contains(stdout, axis) {
			t.Errorf("-axes output missing %q", axis)
		}
	}
}

// TestSmoke runs a tiny two-unit grid end to end in CSV form.
func TestSmoke(t *testing.T) {
	exe := cmdtest.Build(t)
	stdout, _ := cmdtest.Run(t, exe,
		"-grid", "workload=TPC-B; mech=Baseline,ADDICT", "-traces", "8", "-scale", "0.05", "-format", "csv")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 unit rows, got %d lines:\n%s", len(lines), stdout)
	}
	if !strings.Contains(lines[0], "mechanism") {
		t.Errorf("missing CSV header: %q", lines[0])
	}
	if !strings.Contains(stdout, "Baseline") || !strings.Contains(stdout, "ADDICT") {
		t.Errorf("unit rows missing mechanisms:\n%s", stdout)
	}
}

// TestJoinUnusableStoreFailsFast: a worker whose -store cannot open exits
// 1 naming the store before it dials the coordinator.
func TestJoinUnusableStoreFailsFast(t *testing.T) {
	exe := cmdtest.Build(t)
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(exe, "-join", "http://127.0.0.1:1", "-store", file)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v", err)
	}
	if !strings.Contains(stderr.String(), "store") || strings.Contains(stderr.String(), "join") {
		t.Errorf("want a store error before any join attempt, got: %s", stderr.String())
	}
}

// TestSynthGridSmoke sweeps a synthetic preset over two write fractions
// and checks the encoded workload names reach the output with stable IDs.
func TestSynthGridSmoke(t *testing.T) {
	exe := cmdtest.Build(t)
	stdout, _ := cmdtest.Run(t, exe,
		"-grid", "synth=uniform-ro; write=0.1,0.9; mech=Baseline",
		"-traces", "8", "-scale", "0.01", "-format", "csv")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 unit rows, got %d lines:\n%s", len(lines), stdout)
	}
	for _, want := range []string{"synth:uniform-ro+w0.1/Baseline/", "synth:uniform-ro+w0.9/Baseline/"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing unit %q:\n%s", want, stdout)
		}
	}
}

// TestSynthGridByteIdentity: the acceptance criterion's CLI half — a synth
// grid must emit identical bytes for every -parallel value.
func TestSynthGridByteIdentity(t *testing.T) {
	exe := cmdtest.Build(t)
	grid := []string{
		"-grid", "synth=zipf-hot-rw; theta=0.6,0.99; mech=Baseline,ADDICT",
		"-traces", "12", "-scale", "0.01", "-format", "csv",
	}
	ref, _ := cmdtest.Run(t, exe, append(grid, "-parallel", "1")...)
	if len(ref) == 0 {
		t.Fatal("serial synth sweep produced no output")
	}
	for _, par := range []string{"2", "8"} {
		got, _ := cmdtest.Run(t, exe, append(grid, "-parallel", par)...)
		if got != ref {
			t.Errorf("-parallel %s output diverges from serial", par)
		}
	}
}

// TestInterruptExitsPromptly is the cancellation acceptance criterion at
// the process level: SIGINT on a large in-flight grid must exit with a
// non-zero status within 2 seconds (the CI cancel-smoke step re-checks the
// same contract on the installed binaries).
func TestInterruptExitsPromptly(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT delivery on windows")
	}
	exe := cmdtest.Build(t)
	// A grid far too large to finish: cancellation, not completion, ends it.
	cmd := exec.Command(exe,
		"-grid", "l1i=8K,16K,32K,64K; cores=4,8,16; threads=2,4,8,16",
		"-traces", "400", "-scale", "1.0")
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let it get into trace generation before interrupting.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := cmd.Wait()
	elapsed := time.Since(start)
	if err == nil {
		t.Error("interrupted sweep exited 0, want non-zero")
	}
	if elapsed > 2*time.Second {
		t.Errorf("interrupted sweep took %v to exit, want <= 2s", elapsed)
	}
}

// TestDistributedProcessesMatchSerial is the command-level acceptance run:
// one coordinator process (-serve-workers, contributing no local workers)
// plus two separate worker processes (-join) rendezvousing on one store
// directory must produce stdout byte-identical to the same grid swept in
// a single process, and the -dist-summary file must account every unit.
func TestDistributedProcessesMatchSerial(t *testing.T) {
	exe := cmdtest.Build(t)
	gridArgs := []string{
		"-grid", "workload=synth:uniform-ro,synth:hotset-write; mech=Baseline,ADDICT",
		"-traces", "40", "-scale", "0.05", "-seed", "5", "-format", "jsonl",
	}
	serial, _ := cmdtest.Run(t, exe, gridArgs...)
	if serial == "" {
		t.Fatal("serial sweep produced no output")
	}

	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	summaryPath := filepath.Join(dir, "summary.json")
	coord := exec.Command(exe, append(gridArgs,
		"-serve-workers", "127.0.0.1:0", "-local-workers", "0",
		"-store", store, "-dist-summary", summaryPath)...)
	var coordOut bytes.Buffer
	coord.Stdout = &coordOut
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The coordinator announces its bound address on stderr before leasing
	// anything; scrape the join URL from that line.
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 {
				urlCh <- strings.Fields(line[i:])[0]
				break
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	var joinURL string
	select {
	case joinURL = <-urlCh:
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator never announced its address")
	}

	var wg sync.WaitGroup
	workerErr := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := exec.Command(exe, "-join", joinURL, "-store", store, "-parallel", "2")
			w.Stdout = io.Discard
			w.Stderr = io.Discard
			workerErr[i] = w.Run()
		}(i)
	}
	wg.Wait()
	for i, werr := range workerErr {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if got := coordOut.String(); got != serial {
		t.Errorf("distributed stdout differs from serial:\n got: %q\nwant: %q", got, serial)
	}

	data, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatalf("dist summary not written: %v", err)
	}
	var sum struct {
		Units     int  `json:"units"`
		Completed int  `json:"completed"`
		Done      bool `json:"done"`
		Workers   map[string]struct {
			Completed uint64 `json:"completed"`
		} `json:"workers"`
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("bad summary JSON: %v\n%s", err, data)
	}
	if !sum.Done || sum.Units != 4 || sum.Completed != 4 {
		t.Errorf("summary = %+v, want 4/4 done", sum)
	}
	var total uint64
	for _, w := range sum.Workers {
		total += w.Completed
	}
	if total != 4 {
		t.Errorf("worker completions sum to %d, want 4\n%s", total, data)
	}
}
