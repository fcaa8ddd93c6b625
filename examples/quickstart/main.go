// Quickstart runs the paper's Section 2 example end to end: the GDP
// statistical program — quarterly average population, regional GDP,
// national GDP, its seasonal-decomposition trend and the percentage change
// of the trend — registered with the engine, executed over synthetic data,
// and printed.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"exlengine"
)

// gdpProgram is the paper's running example in EXL concrete syntax.
const gdpProgram = `
cube PDR(d: day, r: string) measure p
cube RGDPPC(q: quarter, r: string) measure g

PQR    := avg(PDR, group by quarter(d) as q, r)
RGDP   := RGDPPC * PQR
GDP    := sum(RGDP, group by q)
GDPT   := stl_t(GDP)
PCHNG  := (GDPT - shift(GDPT, 1)) * 100 / GDPT
`

func main() {
	eng := exlengine.New()
	if err := eng.RegisterProgram("gdp", gdpProgram); err != nil {
		log.Fatal(err)
	}

	// Elementary data: two years of daily population for three regions,
	// plus per-capita GDP by quarter.
	pdr := exlengine.NewCube(exlengine.NewSchema("PDR",
		[]exlengine.Dim{{Name: "d", Type: exlengine.TDay}, {Name: "r", Type: exlengine.TString}}, "p"))
	rgdppc := exlengine.NewCube(exlengine.NewSchema("RGDPPC",
		[]exlengine.Dim{{Name: "q", Type: exlengine.TQuarter}, {Name: "r", Type: exlengine.TString}}, "g"))

	regions := map[string]float64{"north": 27.8e6, "centre": 11.9e6, "south": 19.8e6}
	start := exlengine.NewDaily(2010, time.January, 1)
	for i := 0; i < 730; i++ {
		day := start.Shift(int64(i))
		for r, base := range regions {
			pop := base * (1 + 0.00002*float64(i))
			if err := pdr.Put([]exlengine.Value{exlengine.Per(day), exlengine.Str(r)}, pop); err != nil {
				log.Fatal(err)
			}
		}
	}
	for q := 0; q < 8; q++ {
		quarter := exlengine.NewQuarterly(2010, 1).Shift(int64(q))
		for r := range regions {
			gpc := 6500.0 + 120*float64(q) + 400*float64(q%4) // trend + seasonality
			if err := rgdppc.Put([]exlengine.Value{exlengine.Per(quarter), exlengine.Str(r)}, gpc); err != nil {
				log.Fatal(err)
			}
		}
	}
	t0 := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := eng.PutCube(pdr, t0); err != nil {
		log.Fatal(err)
	}
	if err := eng.PutCube(rgdppc, t0); err != nil {
		log.Fatal(err)
	}

	// The generated schema mapping (the paper's tgds (1)-(5)).
	tgds, err := eng.Translate("gdp", exlengine.ArtifactTgds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated schema mapping:")
	fmt.Println(tgds)

	// Run: determination -> translation -> dispatch to target engines.
	report, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("execution plan and dispatch:")
	for _, s := range report.Subgraphs {
		fmt.Printf("  %-6s %v\n", s.Target, s.Cubes)
	}
	fmt.Println()

	gdp, _ := eng.Cube("GDP")
	gdpt, _ := eng.Cube("GDPT")
	pchng, _ := eng.Cube("PCHNG")
	fmt.Printf("%-10s %16s %16s %10s\n", "quarter", "GDP", "trend", "pchng %")
	for _, tu := range gdp.Tuples() {
		trend, _ := gdpt.Get(tu.Dims)
		change, ok := pchng.Get(tu.Dims)
		changeStr := "-"
		if ok {
			changeStr = fmt.Sprintf("%.2f", change)
		}
		fmt.Printf("%-10s %16.0f %16.0f %10s\n", tu.Dims[0], tu.Measure, trend, changeStr)
	}
}
