package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// writeGolden recomputes every output digest the benchmark checks and
// writes them to path as golden.json. Run it only when a change is meant to
// alter the program's output.
func writeGolden(path string) error {
	g := goldenFile{Outputs: map[string]string{}, Jobs: map[string]string{}}
	for _, w := range []simWorkload{plruExact, geomAnalytic} {
		mc, _, _ := fetchSubset(subsetEntries(subsetStride), subsetScale)
		out, err := w.render(mc)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		g.Outputs[w.name] = digest(out.Text, out.CSV)
	}
	_, ms, _ := fetchSubset(subsetEntries(subsetStride), subsetScale)
	order := make([]int, len(ms))
	for i := range order {
		order[i] = i
	}
	rows, err := rcceSweeps(ms, order)
	if err != nil {
		return fmt.Errorf("rcce-mesh: %w", err)
	}
	g.Outputs["rcce-mesh"] = rowsDigest(rows)

	d, err := startDaemon()
	if err != nil {
		return err
	}
	for _, j := range servePopulation {
		_, res, err := d.runJob(j)
		if err != nil {
			d.stop()
			return fmt.Errorf("serve-mix %s: %w", j.key(), err)
		}
		g.Jobs[j.key()] = digest(string(res))
	}
	if err := d.stop(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
