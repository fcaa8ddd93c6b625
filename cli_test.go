package exlengine

// Integration tests for the command-line tools: each binary is built once
// into a temporary directory and driven the way a user would drive it.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles the CLIs once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "exlengine-cli")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		for _, tool := range []string{"exlc", "exlrun", "exlsh"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return buildDir
}

const cliProgram = `
cube PDR(d: day, r: string) measure p
cube RGDPPC(q: quarter, r: string) measure g

PQR    := avg(PDR, group by quarter(d) as q, r)
RGDP   := RGDPPC * PQR
GDP    := sum(RGDP, group by q)
`

func TestExlcEmitsArtifacts(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.exl")
	if err := os.WriteFile(src, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := map[string]string{
		"tgds":    "RGDP(q, r, g) → GDP(q, sum(g))",
		"sql":     "GROUP BY QUARTER(C1.d), C1.r",
		"r":       "merge(",
		"matlab":  "join(",
		"etl":     `"merge_join"`,
		"summary": "table_input(RGDPPC), table_input(PQR) | merge_join | calculator | table_output(RGDP)",
	}
	for emit, frag := range cases {
		out, err := exec.Command(filepath.Join(bin, "exlc"), "-emit", emit, src).CombinedOutput()
		if err != nil {
			t.Fatalf("exlc -emit %s: %v\n%s", emit, err, out)
		}
		if !strings.Contains(string(out), frag) {
			t.Errorf("exlc -emit %s missing %q:\n%s", emit, frag, out)
		}
	}

	// Normalized mode keeps the auxiliary tgds of multi-operator
	// statements.
	cmdN := exec.Command(filepath.Join(bin, "exlc"), "-emit", "tgds", "-normalized")
	cmdN.Stdin = strings.NewReader("cube A(t: year) measure v\nB := (A - shift(A, 1)) / A\n")
	out, err := cmdN.CombinedOutput()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "_B_") {
		t.Errorf("normalized output has no auxiliary cubes:\n%s", out)
	}

	// Views mode renders normalized auxiliaries as CREATE VIEW.
	cmdV := exec.Command(filepath.Join(bin, "exlc"), "-emit", "sql", "-normalized", "-views")
	cmdV.Stdin = strings.NewReader("cube A(t: year) measure v\nB := (A - shift(A, 1)) / A\n")
	outV, err := cmdV.CombinedOutput()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(outV), "CREATE VIEW _B_") {
		t.Errorf("views mode missing CREATE VIEW:\n%s", outV)
	}

	// Stdin input.
	cmd := exec.Command(filepath.Join(bin, "exlc"), "-emit", "tgds")
	cmd.Stdin = strings.NewReader("cube A(t: year) measure v\nB := A * 2\n")
	out, err = cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "B(t, (v * 2))") {
		t.Errorf("exlc stdin: %v\n%s", err, out)
	}

	// Errors are reported with a non-zero exit.
	cmd = exec.Command(filepath.Join(bin, "exlc"), "-emit", "tgds")
	cmd.Stdin = strings.NewReader("A := ")
	if err := cmd.Run(); err == nil {
		t.Error("exlc with a bad program must fail")
	}
	cmd = exec.Command(filepath.Join(bin, "exlc"), "-emit", "cobol", src)
	if err := cmd.Run(); err == nil {
		t.Error("exlc with an unknown artifact must fail")
	}
}

func TestExlrunEndToEnd(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.exl")
	if err := os.WriteFile(src, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	pdr := `d,r,p
2001-03-30,north,10
2001-03-31,north,20
2001-04-01,north,30
2001-04-02,north,40
`
	rgdppc := `q,r,g
2001-Q1,north,2
2001-Q2,north,4
`
	if err := os.WriteFile(filepath.Join(dir, "PDR.csv"), []byte(pdr), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "RGDPPC.csv"), []byte(rgdppc), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, target := range []string{"auto", "chase", "sql", "etl", "frame"} {
		outDir := filepath.Join(dir, "out-"+target)
		out, err := exec.Command(filepath.Join(bin, "exlrun"),
			"-program", src, "-data", dir, "-target", target, "-out", outDir, "-v").CombinedOutput()
		if err != nil {
			t.Fatalf("exlrun -target %s: %v\n%s", target, err, out)
		}
		raw, err := os.ReadFile(filepath.Join(outDir, "GDP.csv"))
		if err != nil {
			t.Fatal(err)
		}
		// GDP(2001-Q1) = avg(10,20)*2 = 30; GDP(2001-Q2) = avg(30,40)*4 = 140.
		for _, frag := range []string{"2001-Q1,30", "2001-Q2,140"} {
			if !strings.Contains(string(raw), frag) {
				t.Errorf("GDP.csv (%s) missing %q:\n%s", target, frag, raw)
			}
		}
	}

	// Missing input file.
	if err := exec.Command(filepath.Join(bin, "exlrun"),
		"-program", src, "-data", t.TempDir()).Run(); err == nil {
		t.Error("exlrun without data must fail")
	}
}

func TestExlshSession(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	csv := "t,v\n2000,1\n2001,2\n2002,4\n"
	csvPath := filepath.Join(dir, "a.csv")
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	session := strings.Join([]string{
		"cube A(t: year) measure v",
		"\\load A " + csvPath,
		"B := cumsum(A)",
		"C := B - A",
		"\\show C 5",
		"\\cubes",
		"\\programs",
		"\\run sql",
		"\\sql",
		"\\tgds repl_002",
		"\\trace",
		"\\metrics",
		"\\help",
		"\\nosuch",
		"\\quit",
	}, "\n") + "\n"
	cmd := exec.Command(filepath.Join(bin, "exlsh"))
	cmd.Stdin = strings.NewReader(session)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("exlsh: %v\n%s", err, out)
	}
	text := string(out)
	for _, frag := range []string{
		"A: 3 tuples loaded",
		"B: 3 tuples",
		"C: 3 tuples",
		"2002\t3", // C(2002) = cumsum 7 - 4 = 3
		"repl_001",
		"recalculated 2 cubes",
		"INSERT INTO C", // \sql shows the latest program (repl_003)
		"A → B(cumsum(A))",
		"dispatch",                  // \trace shows the last run's span tree
		"counter engine_runs_total", // \metrics accumulates over the session
		"unknown command",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("exlsh output missing %q:\n%s", frag, text)
		}
	}
}

// TestExlrunObservability drives -trace, -metrics, -report and -v on a
// real run and checks the stdout/stderr contract: all diagnostics go to
// stderr, stdout stays clean for data.
func TestExlrunObservability(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.exl")
	if err := os.WriteFile(src, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	pdr := "d,r,p\n2001-03-30,north,10\n2001-03-31,north,20\n"
	rgdppc := "q,r,g\n2001-Q1,north,2\n"
	if err := os.WriteFile(filepath.Join(dir, "PDR.csv"), []byte(pdr), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "RGDPPC.csv"), []byte(rgdppc), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "exlrun"),
			append([]string{"-program", src, "-data", dir, "-out", filepath.Join(dir, "out")}, args...)...)
		var so, se strings.Builder
		cmd.Stdout, cmd.Stderr = &so, &se
		if err := cmd.Run(); err != nil {
			t.Fatalf("exlrun %v: %v\nstderr:\n%s", args, err, se.String())
		}
		return so.String(), se.String()
	}

	// Tree trace: the nested pipeline spans appear on stderr.
	stdout, stderr := run("-trace", "-metrics", "-report", "-v")
	if stdout != "" {
		t.Errorf("stdout must stay clean for data, got:\n%s", stdout)
	}
	for _, frag := range []string{
		"compile", "run", "determine", "dispatch", "fragment", "attempt", "persist",
		"counter engine_runs_total 1",
		"fallback(s)",
		"plan:",
	} {
		if !strings.Contains(stderr, frag) {
			t.Errorf("stderr missing %q:\n%s", frag, stderr)
		}
	}

	// JSON trace: every non-metric stderr line before the report is a
	// JSON object with a span name.
	_, stderr = run("-trace=json")
	if !strings.Contains(stderr, `"name":"run"`) || !strings.Contains(stderr, `"name":"dispatch"`) {
		t.Errorf("-trace=json stderr:\n%s", stderr)
	}
	for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Errorf("trace line is not JSON: %q (%v)", line, err)
		}
	}
}
