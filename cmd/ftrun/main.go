// Command ftrun is a standalone interpreter for FT programs (the
// Fortran subset the tuner transforms): it parses, analyzes, runs, and
// optionally profiles any .ft file under the simulated machine model.
// It makes the repository's front end and interpreter usable outside
// the tuning pipeline:
//
//	ftrun program.ft                 run, print PRINT output
//	ftrun -profile program.ft        also print the GPTL region table
//	ftrun -lower all program.ft      run the uniform 32-bit build
//	ftrun -machine avx512 program.ft price on the 512-bit machine model
//
// The bundled model sources live under internal/models/src/*.ft and run
// directly: `ftrun internal/models/src/mpas_a.ft`.
package main

import (
	"flag"
	"fmt"
	"os"

	ft "repro/internal/fortran"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/transform"
)

func main() {
	profile := flag.Bool("profile", false, "print the GPTL per-procedure profile")
	lower := flag.String("lower", "", "'all' lowers every real declaration to 32-bit")
	machine := flag.String("machine", "avx2", "machine model: avx2 or avx512")
	trap := flag.Bool("trap", true, "abort on non-finite assignments")
	budget := flag.Float64("budget", 0, "cycle budget (0 = unlimited)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ftrun [flags] program.ft")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *lower, *machine, *profile, *trap, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "ftrun:", err)
		os.Exit(1)
	}
}

func run(path, lower, machine string, profile, trap bool, budget float64) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := ft.ParseFile(path, string(src))
	if err != nil {
		return err
	}
	if _, err := ft.Analyze(prog, ft.Options{}); err != nil {
		return err
	}

	if lower == "all" {
		v, err := transform.Apply(prog, transform.Uniform(transform.Atoms(prog), 4))
		if err != nil {
			return err
		}
		prog = v.Prog
	} else if lower != "" {
		return fmt.Errorf("unsupported -lower value %q (only 'all')", lower)
	}

	var m *perfmodel.Model
	switch machine {
	case "avx2":
		m = perfmodel.Default()
	case "avx512":
		m = perfmodel.AVX512()
	default:
		return fmt.Errorf("unknown machine %q", machine)
	}

	in, err := interp.New(prog, interp.Config{
		Model:         m,
		TrapNonFinite: trap,
		Profile:       profile,
		Stdout:        os.Stdout,
		CycleBudget:   budget,
	})
	if err != nil {
		return err
	}
	res, runErr := in.Run()
	fmt.Fprintf(os.Stderr, "%.0f simulated cycles on %s (%d kind casts)\n",
		res.Cycles, m.Name, res.Casts)
	if profile && res.Timers != nil {
		fmt.Fprint(os.Stderr, res.Timers.Report())
	}
	return runErr
}
