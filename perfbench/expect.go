package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// expectJSON holds the verdict every batch job must produce, generated
// with the default tree engine by --write-expect.
//
//go:embed expect.json
var expectJSON []byte

type expectFile struct {
	Note     string             `json:"note"`
	Go       string             `json:"go"`
	Verdicts map[string]verdict `json:"verdicts"`
}

func loadExpectations() (map[string]verdict, error) {
	var f expectFile
	if err := json.Unmarshal(expectJSON, &f); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return f.Verdicts, nil
}

// generateExpectations runs every job either batch workload can draw and
// records its verdict.
func generateExpectations(path string) error {
	f := expectFile{
		Note:     "verdicts of every batch job, keyed workload/model; regenerate with owlbench --write-expect",
		Go:       runtime.Version(),
		Verdicts: map[string]verdict{},
	}
	for _, spec := range []batchSpec{triageFull, huntLight} {
		for _, j := range allJobs(spec, buildModules(spec)) {
			t0 := time.Now()
			pe, err := runJob(spec, j, workers(), nil, nil, j.key(spec.name), 0)
			if err != nil {
				return fmt.Errorf("%s: %w", j.key(spec.name), err)
			}
			v := verdictOf(pe)
			f.Verdicts[j.key(spec.name)] = v
			fmt.Fprintf(os.Stderr, "%s: %s (%.2fs)\n", j.key(spec.name), v, time.Since(t0).Seconds())
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
