package main

import (
	_ "embed"
	"encoding/json"
)

// expect.json holds outputs recorded from the program, which the
// oracles compare against; NOTES.md says how to re-record them.
//
//go:embed expect.json
var expectJSON []byte

type expectation struct {
	// Paper maps each paper-all experiment to the SHA-256 of its render
	// at seed 0 (identical to `rrstudy -experiment all`).
	Paper map[string]string `json:"paper_all_seed0_render_sha256"`
	// PaperTable1Rows is the SHA-256 of paper-all's Table 1 probed and
	// ping-responsive rows, the same at every seed.
	PaperTable1Rows string `json:"paper_all_table1_rows_sha256"`
	// SweepReplies is the echo-reply count of each large-sweep batch at
	// seed 0.
	SweepReplies []int `json:"large_sweep_seed0_batch_replies"`
	// WorldRows maps each service job world seed to the SHA-256 of its
	// Table 1 probed and ping-responsive rows.
	WorldRows map[string]string `json:"service_world_rows_sha256"`
}

var expected = func() expectation {
	var e expectation
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		panic("perfbench: expect.json: " + err.Error())
	}
	return e
}()
