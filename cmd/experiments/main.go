// Command experiments regenerates the tables and figures of the
// PowerDial paper's evaluation (Sec. 5) as text output.
//
// Usage:
//
//	experiments -exp all            # everything, medium scale
//	experiments -exp fig7           # one experiment
//	experiments -exp fig5 -scale large
//
// Experiment ids: table1 table2 report fig5 fig6 fig7 fig8 models
// ablations all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	powerdial "repro"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experiments.IDs(), " "))
	scale := flag.String("scale", "medium", "input scale: small | medium | large")
	flag.Parse()

	sc, err := powerdial.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	suite := experiments.NewSuite(sc)
	if err := experiments.Run(os.Stdout, suite, *exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
