package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"exlengine/internal/model"
)

// KnownCase is a checked-in divergence reproduction from
// testdata/known/: a case the fuzzer found that is deliberately not
// fixed yet. The regression test re-runs each one, asserts it still
// diverges (so the corpus never rots into dead files) and then skips
// with the tracking note.
type KnownCase struct {
	Name string // file name without extension
	Note string // leading # comment lines: the tracking comment
	Case *Case
}

// LoadKnownCases reads every *.case file in dir. The format is
// line-oriented:
//
//	# tracking comment (may repeat)
//	== program ==
//	<EXL source lines>
//	== data CUBE ==
//	dim[,dim…],measure        (one tuple per line)
//
// Data rows are typed against the compiled program's elementary schemas,
// so a case file is self-contained and survives renames of internal
// representations. A missing directory is an empty corpus, not an error.
func LoadKnownCases(dir string) ([]KnownCase, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".case") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []KnownCase
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		kc, err := parseKnownCase(strings.TrimSuffix(name, ".case"), string(raw))
		if err != nil {
			return nil, fmt.Errorf("difftest: %s: %w", name, err)
		}
		out = append(out, kc)
	}
	return out, nil
}

func parseKnownCase(name, raw string) (KnownCase, error) {
	kc := KnownCase{Name: name}
	var notes []string
	var program []string
	dataRows := map[string][]string{} // cube → raw tuple lines
	section := ""                     // "", "program", or a cube name
	for _, line := range strings.Split(raw, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "#"):
			notes = append(notes, strings.TrimSpace(strings.TrimPrefix(trimmed, "#")))
		case strings.HasPrefix(trimmed, "==") && strings.HasSuffix(trimmed, "=="):
			header := strings.TrimSpace(strings.Trim(trimmed, "="))
			if header == "program" {
				section = "program"
			} else if cube, ok := strings.CutPrefix(header, "data "); ok {
				section = strings.TrimSpace(cube)
			} else {
				return kc, fmt.Errorf("unknown section header %q", trimmed)
			}
		case trimmed == "":
		case section == "program":
			program = append(program, line)
		case section != "":
			dataRows[section] = append(dataRows[section], trimmed)
		default:
			return kc, fmt.Errorf("content before any section header: %q", line)
		}
	}
	kc.Note = strings.Join(notes, " ")
	if len(program) == 0 {
		return kc, fmt.Errorf("no program section")
	}

	// Split the program into declarations and statements, compile it to
	// learn the elementary schemas, then type the data rows against them.
	var decls, stmts []string
	for _, line := range program {
		if strings.HasPrefix(strings.TrimSpace(line), "cube ") {
			decls = append(decls, line)
		} else {
			stmts = append(stmts, line)
		}
	}
	c := &Case{Decls: decls, Stmts: stmts, Data: map[string]*model.Cube{}}
	m, err := compile(c.Source())
	if err != nil {
		return kc, err
	}
	for _, el := range m.Elementary {
		sch := m.Schemas[el]
		cube := model.NewCube(sch)
		for _, row := range dataRows[el] {
			if err := putRow(cube, sch, row); err != nil {
				return kc, fmt.Errorf("data %s row %q: %w", el, row, err)
			}
		}
		c.Data[el] = cube
	}
	for cube := range dataRows {
		if _, ok := c.Data[cube]; !ok {
			return kc, fmt.Errorf("data section for undeclared cube %s", cube)
		}
	}
	kc.Case = c
	return kc, nil
}

func putRow(cube *model.Cube, sch model.Schema, row string) error {
	parts := strings.Split(row, ",")
	if len(parts) != len(sch.Dims)+1 {
		return fmt.Errorf("want %d fields, got %d", len(sch.Dims)+1, len(parts))
	}
	dims := make([]model.Value, len(sch.Dims))
	for i, d := range sch.Dims {
		v, err := model.ParseValue(strings.TrimSpace(parts[i]), d.Type)
		if err != nil {
			return err
		}
		dims[i] = v
	}
	var measure float64
	if _, err := fmt.Sscanf(strings.TrimSpace(parts[len(parts)-1]), "%g", &measure); err != nil {
		return fmt.Errorf("bad measure %q: %w", parts[len(parts)-1], err)
	}
	return cube.Put(dims, measure)
}

// FormatKnownCase renders a case in the testdata/known/ file format, so
// the fuzzer CLI can emit ready-to-commit reproductions.
func FormatKnownCase(note string, c *Case) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(note), "\n") {
		fmt.Fprintf(&b, "# %s\n", strings.TrimSpace(line))
	}
	b.WriteString("== program ==\n")
	b.WriteString(c.Source())
	b.WriteString(c.DataCSV())
	return b.String()
}
