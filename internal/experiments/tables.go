package experiments

import (
	"fmt"
	"strings"

	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/report"
	"husgraph/internal/storage"
)

// Table2 reproduces Table 2: the dataset inventory, showing the paper's
// graphs alongside the synthetic analogues actually generated.
func (r *Runner) Table2() ([]*report.Table, error) {
	t := report.NewTable("Table 2: datasets (paper graphs and synthetic analogues)",
		"dataset", "paper graph", "paper |V|", "paper |E|", "sim |V|", "sim |E|", "type")
	for _, base := range gen.Registry() {
		d, err := r.Dataset(base.Name)
		if err != nil {
			return nil, err
		}
		g := r.Graph(d, false)
		t.AddRow(d.Name, d.PaperName, d.PaperVertices, d.PaperEdges,
			fmt.Sprintf("%d", g.NumVertices), fmt.Sprintf("%d", g.NumEdges()), d.Kind)
	}
	return []*report.Table{t}, nil
}

// Table3 reproduces Table 3: execution time of PageRank, BFS, WCC and SSSP
// on every dataset for GraphChi, GridGraph and HUS-Graph (HDD, paper
// defaults), plus HUS-Graph's speedup factors.
func (r *Runner) Table3() ([]*report.Table, error) {
	t := report.NewTable("Table 3: execution time (s), HDD",
		"dataset", "algorithm", "GraphChi", "GridGraph", "HUS-Graph", "vs GraphChi", "vs GridGraph")
	for _, name := range gen.Names() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		for _, a := range StandardAlgos() {
			var times []float64
			for _, system := range []string{"GraphChi", "GridGraph"} {
				res, err := r.RunBaseline(system, d, a, storage.HDD, 0)
				if err != nil {
					return nil, err
				}
				times = append(times, res.TotalRuntime().Seconds())
			}
			res, err := r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
			if err != nil {
				return nil, err
			}
			hus := res.TotalRuntime().Seconds()
			t.AddRow(d.Name, a.Name,
				fmt.Sprintf("%.3f", times[0]), fmt.Sprintf("%.3f", times[1]), fmt.Sprintf("%.3f", hus),
				report.Ratio(times[0], hus), report.Ratio(times[1], hus))
		}
	}
	return []*report.Table{t}, nil
}

// registry is the one ordered list of experiments: ExperimentNames, ByName
// and All all read it, so a driver added here is in husbench's -exp list
// and in -exp all (which CI diffs) at once.
var registry = []struct {
	name string
	run  func(*Runner) ([]*report.Table, error)
}{
	{"table2", (*Runner).Table2},
	{"fig1", (*Runner).Fig1},
	{"fig7", (*Runner).Fig7},
	{"fig8", (*Runner).Fig8},
	{"table3", (*Runner).Table3},
	{"fig9", (*Runner).Fig9},
	{"fig10", (*Runner).Fig10},
	{"fig11", (*Runner).Fig11},
	{"devices", (*Runner).Devices},
	{"ablations", (*Runner).Ablations},
}

// All runs every experiment in registry order: the paper's, then the
// extensions.
func (r *Runner) All() ([]*report.Table, error) {
	var out []*report.Table
	for _, e := range registry {
		ts, err := e.run(r)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// ByName dispatches an experiment by its identifier: one of
// ExperimentNames, or "all".
func (r *Runner) ByName(name string) ([]*report.Table, error) {
	if name == "all" {
		return r.All()
	}
	for _, e := range registry {
		if e.name == name {
			return e.run(r)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want %s|all)", name, strings.Join(ExperimentNames(), "|"))
}

// ExperimentNames lists the valid ByName identifiers in registry order.
func ExperimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}
