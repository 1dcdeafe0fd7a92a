package report

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"hbmrd/internal/core"
	"hbmrd/internal/query"
)

// AggregateTable renders a query aggregate as an aligned text table: the
// form a figure artifact, `hbmrd query` and a stored sweep's figure
// preset all print, so a stored sweep reproduces an artifact's table
// without re-running the experiment. Column layout comes from the
// aggregate's own Table form (group-by columns, count, then the spec's
// reducers), so the table, the CSV form, and the cached JSON all present
// one deterministic result.
func AggregateTable(a *query.Aggregate) string {
	header, rows := a.Table()
	body := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, strings.Join(header, "\t"))
		for _, r := range rows {
			fmt.Fprintln(w, strings.Join(r, "\t"))
		}
	})
	return fmt.Sprintf("sweep %s  kind %s  (%d records, %d matched)\n%s",
		a.Sweep, a.Kind, a.Records, a.Matched, body)
}

// Figure renders a kind's records through a figure's query preset
// (query.FigureSpec) as the stored sweep at the fingerprint would answer
// it: the table `hbmrd query -figure` prints for that sweep.
func Figure(preset, sweep string, kind core.Kind, recs any) (string, error) {
	spec, err := query.FigureSpec(preset, sweep)
	if err != nil {
		return "", err
	}
	agg, err := query.ComputeRecords(kind, recs, spec, query.Env{})
	if err != nil {
		return "", err
	}
	return AggregateTable(agg), nil
}
