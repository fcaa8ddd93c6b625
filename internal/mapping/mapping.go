package mapping

import (
	"fmt"
	"sort"
	"strings"

	"exlengine/internal/exl"
	"exlengine/internal/model"
)

// Mapping is the schema mapping M = (S, T, Σst, Σt) generated from an EXL
// program. Source and target schemas contain one relation per cube (the
// target additionally holds derived and auxiliary cubes); Σst is the set of
// copy tgds (represented implicitly, one per elementary cube); Σt holds the
// program tgds in stratification order plus the functionality egds.
type Mapping struct {
	// Schemas maps every relation name (elementary, derived and auxiliary)
	// to its schema.
	Schemas map[string]model.Schema
	// Elementary lists the source relations, sorted.
	Elementary []string
	// Derived lists the program-visible derived cubes in statement order.
	Derived []string
	// Tgds holds the target dependencies in stratified order.
	Tgds []*Tgd
	// Egds holds one functionality egd per target relation.
	Egds []Egd
	// Analyzed is the program the mapping was generated from.
	Analyzed *exl.Analyzed
}

// CopyTgds renders the source-to-target copy dependencies of Σst, one per
// elementary cube (Section 4.1: F_S,i(x…, y) → F_T,i(x…, y)).
func (m *Mapping) CopyTgds() []*Tgd {
	out := make([]*Tgd, 0, len(m.Elementary))
	for _, name := range m.Elementary {
		sch := m.Schemas[name]
		lhs := Atom{Rel: name + "_S", MVar: "y"}
		rhs := Atom{Rel: name + "_T"}
		for _, d := range sch.Dims {
			lhs.Dims = append(lhs.Dims, V(d.Name))
			rhs.Dims = append(rhs.Dims, V(d.Name))
		}
		out = append(out, &Tgd{ID: "copy_" + name, Kind: Copy, Lhs: []Atom{lhs}, Rhs: rhs, Measure: MV("y")})
	}
	return out
}

// TgdFor returns the tgd populating the named relation, or nil.
func (m *Mapping) TgdFor(rel string) *Tgd {
	for _, t := range m.Tgds {
		if t.Target() == rel {
			return t
		}
	}
	return nil
}

// AuxRelations returns the auxiliary relation names in stratification
// order (empty after a successful full fusion pass).
func (m *Mapping) AuxRelations() []string {
	var out []string
	for _, t := range m.Tgds {
		if t.Auxiliary {
			out = append(out, t.Target())
		}
	}
	return out
}

// String renders the whole mapping: tgds in order, then egds.
func (m *Mapping) String() string {
	var b strings.Builder
	for i, t := range m.Tgds {
		fmt.Fprintf(&b, "(%d) %s\n", i+1, t)
	}
	if len(m.Egds) > 0 {
		b.WriteString("egds:\n")
		for _, e := range m.Egds {
			fmt.Fprintf(&b, "    %s\n", e)
		}
	}
	return b.String()
}

func (m *Mapping) rebuildEgds() {
	m.Egds = m.Egds[:0]
	names := make([]string, 0, len(m.Schemas))
	for name := range m.Schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Egds = append(m.Egds, Egd{Rel: name, Dims: len(m.Schemas[name].Dims)})
	}
}
