// Package cliflags is the flag plumbing shared by the repro
// command-line tools. Each CLI used to register and validate its own
// -machines/-workers/-lint/-trace variants; drift between them meant
// the same flag could behave differently per tool. Registering
// through one helper keeps names, defaults, usage strings, and
// validation in a single place.
package cliflags

import (
	"flag"
	"fmt"
)

// Cluster holds the execution sizing flags (-machines, -workers).
type Cluster struct {
	// Machines is the simulated cluster size (partition count).
	Machines int
	// Workers is the real worker-pool width executing partition
	// tasks; metered work and results are identical at every width.
	Workers int
}

// ClusterFlags registers -machines and -workers on fs with the given
// defaults and returns the destination struct, to be read after
// fs.Parse and checked with Validate.
func ClusterFlags(fs *flag.FlagSet, defMachines, defWorkers int) *Cluster {
	c := &Cluster{}
	fs.IntVar(&c.Machines, "machines", defMachines,
		"simulated cluster size for execution (must be positive)")
	fs.IntVar(&c.Workers, "workers", defWorkers,
		"execution worker-pool width (must be positive)")
	return c
}

// Validate rejects non-positive cluster sizes.
func (c *Cluster) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("-machines must be positive, got %d", c.Machines)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", c.Workers)
	}
	return nil
}

// Machines registers just the shared -machines flag, for tools whose
// -workers is a sweep list rather than a single width.
func Machines(fs *flag.FlagSet, def int) *int {
	return fs.Int("machines", def,
		"simulated cluster size for execution (must be positive)")
}

// MemBudget registers the shared -membudget flag: the per-partition
// working-set bound in bytes. Zero disables budgeting; operators
// spill past the budget.
func MemBudget(fs *flag.FlagSet) *int64 {
	return fs.Int64("membudget", 0,
		"per-partition working-set budget in bytes (0 = unbounded; operators spill past it)")
}

// Lint registers the shared -lint flag.
func Lint(fs *flag.FlagSet) *bool {
	return fs.Bool("lint", false,
		"print static-analysis findings for each optimized plan")
}

// Trace registers the shared -trace flag.
func Trace(fs *flag.FlagSet) *string {
	return fs.String("trace", "",
		"write the optimizer and executor spans as Chrome trace_event JSON to this path")
}
