package main

import (
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run the command itself: with EDCBENCH_MAIN set,
// the test binary is edcbench, its arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("EDCBENCH_MAIN") != "" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append(os.Args[:1], os.Args[i+1:]...)
				break
			}
		}
		main()
		return
	}
	os.Exit(m.Run())
}

// edcbench runs the command with args and returns its exit status.
func edcbench(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "EDCBENCH_MAIN=1")
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatal(err)
	}
	return 0
}

// checkProfile fails t unless path holds a complete, non-empty pprof
// profile (a gzip stream that decompresses to EOF without error).
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: not a profile: %v", path, err)
	}
	n, err := io.Copy(io.Discard, zr)
	if err != nil {
		t.Fatalf("%s: truncated profile: %v", path, err)
	}
	if n == 0 {
		t.Fatalf("%s: empty profile", path)
	}
}

// TestProfilesEveryMode checks -cpuprofile and -memprofile are written
// in the -replay and -serve modes too, and stay complete when the run
// fails.
func TestProfilesEveryMode(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"replay", []string{"-replay", "fin1", "-requests", "50"}, 0},
		{"serve", []string{"-serve", "-spec", "d=100ms qps=200", "-volume", "16"}, 0},
		{"replay-error", []string{"-replay", "nosuchworkload"}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cpu := filepath.Join(dir, c.name+".cpu.pprof")
			mem := filepath.Join(dir, c.name+".mem.pprof")
			args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, c.args...)
			if code := edcbench(t, args...); code != c.code {
				t.Fatalf("exit status %d, want %d", code, c.code)
			}
			checkProfile(t, cpu)
			checkProfile(t, mem)
		})
	}
}
