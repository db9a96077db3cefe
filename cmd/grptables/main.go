// Command grptables regenerates every table and figure of the paper's
// evaluation section and prints them in order, either as fixed-width
// ASCII or as a JSON array of exhibits. Simulations run through the
// campaign engine: cells fan out over -jobs workers, and with -cache a
// re-run only re-simulates what changed.
//
// Usage:
//
//	grptables [-factor test|small|full] [-bench a,b,c] [-jobs N] [-cache]
//	          [-skip-sensitivity] [-attrib] [-charts] [-format ascii|json]
//
// A bad flag value exits 2 before any cell runs; a failed run exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/stats"
	"grp/internal/workloads"
)

// exhibit pairs a stable machine key with one rendered table so the JSON
// output preserves presentation order.
type exhibit struct {
	Key   string       `json:"key"`
	Table *stats.Table `json:"table"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("grptables: ")
	var (
		factor   = flag.String("factor", "small", "workload scale: test, small, full")
		benches  = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		skipSens = flag.Bool("skip-sensitivity", false, "skip the Section 5.4 policy sweep (3x extra simulation)")
		charts   = flag.Bool("charts", false, "also render Figures 1 and 12 as ASCII bar charts (ascii format only)")
		attribOn = flag.Bool("attrib", false, "run with the attribution ledger and add the per-scheme outcome exhibit")
		format   = flag.String("format", "ascii", "output format: ascii, json")
		jobs     = flag.Int("jobs", 0, "simulation worker goroutines (default GOMAXPROCS)")
		cacheOn  = flag.Bool("cache", false, "reuse unchanged simulations from the result cache")
		cacheDir = flag.String("cache-dir", campaign.DefaultCacheDir, "result cache directory")
	)
	flag.Parse()

	// A bad flag value exits 2 before any cell runs.
	if *format != "ascii" && *format != "json" {
		usageIf(fmt.Errorf("unknown format %q (want ascii or json)", *format))
	}
	f, err := workloads.ParseFactor(*factor)
	usageIf(err)
	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
		for _, name := range names {
			_, err := workloads.ByName(name)
			usageIf(err)
		}
	}
	opt := core.Options{Factor: f, Attrib: *attribOn}

	eng := campaign.New(campaign.Config{Jobs: *jobs, Cache: *cacheOn, CacheDir: *cacheDir})

	start := time.Now()
	log.Printf("simulating %s-scale suite across %d schemes (%d jobs)...",
		f, len(core.AllSchemes()), eng.Jobs())
	// SIGINT/SIGTERM stop the sweep between cells (and inside one, via
	// the campaign engine's context plumbing).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	suite, err := eng.RunSuite(ctx, names, nil, opt)
	if err != nil {
		log.Fatal(err)
	}
	if cs := eng.CacheStats(); *cacheOn {
		log.Printf("suite done in %v (%d cache hits, simulated %d)",
			time.Since(start).Round(time.Millisecond), cs.Hits, cs.Misses)
	} else {
		log.Printf("suite done in %v", time.Since(start).Round(time.Millisecond))
	}

	var exhibits []exhibit
	add := func(key string, t *stats.Table) {
		exhibits = append(exhibits, exhibit{Key: key, Table: t})
	}

	fig1, err := suite.Figure1()
	fatal(err)
	add("figure1", fig1)

	_, t1, err := suite.Table1()
	fatal(err)
	add("table1", t1)

	t3, err := suite.Table3()
	fatal(err)
	add("table3", t3)

	fig9, err := suite.Figure9()
	fatal(err)
	add("figure9", fig9)

	fig10, err := suite.Figure10()
	fatal(err)
	add("figure10", fig10)

	fig11, err := suite.Figure11()
	fatal(err)
	add("figure11", fig11)

	t4, err := suite.Table4(nil)
	fatal(err)
	add("table4", t4)

	fig12, err := suite.Figure12()
	fatal(err)
	add("figure12", fig12)

	t5, err := suite.Table5()
	fatal(err)
	add("table5", t5)

	t6, err := suite.Table6()
	fatal(err)
	add("table6", t6)

	if *attribOn {
		ta, err := suite.TableAttrib()
		fatal(err)
		add("attrib", ta)
	}

	if !*skipSens {
		log.Printf("running Section 5.4 policy sweep...")
		_, ts, err := core.RunSensitivityWith(ctx, names, opt, eng.Runner())
		fatal(err)
		add("sensitivity", ts)
	}

	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(exhibits))
		return
	}
	for _, e := range exhibits {
		fmt.Println(e.Table)
		if *charts {
			switch e.Key {
			case "figure1":
				c, err := suite.Figure1Chart()
				fatal(err)
				fmt.Println(c)
			case "figure12":
				c, err := suite.Figure12Chart()
				fatal(err)
				fmt.Println(c)
			}
		}
	}
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// usageIf exits 2, the flag package's usage status, on a bad flag value.
func usageIf(err error) {
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
}
