package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"perseus/internal/client"
	"perseus/internal/plan"
)

// ledgerEps is the relative tolerance of the ledger's conservation
// identities; the server computes residuals as exact differences, so
// only summation rounding remains.
const ledgerEps = 1e-9

// checkLedger reads GET /debug/ledger and returns the fleet totals,
// with an error unless the fleet totals and every job's totals conserve
// (plan.BloatSpan.Conserved).
func checkLedger(cl *client.ServerClient, parent span) (plan.BloatSpan, error) {
	sp := parent.child("server.ledger")
	led, err := cl.FetchLedger("", 1)
	sp.end()
	if err != nil {
		return plan.BloatSpan{}, err
	}
	fleet, err := toBloat(led.Fleet.LedgerSpan)
	if err != nil {
		return fleet, err
	}
	if !fleet.Conserved(ledgerEps) {
		return fleet, fmt.Errorf("fleet ledger totals do not conserve: %+v", fleet)
	}
	for _, j := range led.Jobs {
		js, err := toBloat(j.Totals.LedgerSpan)
		if err != nil {
			return fleet, err
		}
		if !js.Conserved(ledgerEps) {
			return fleet, fmt.Errorf("ledger totals of %s do not conserve: %+v", j.JobID, js)
		}
	}
	return fleet, nil
}

// toBloat converts the client's mirror of a ledger span to the
// plan type that owns the conservation identities (same JSON schema).
func toBloat(s client.LedgerSpan) (plan.BloatSpan, error) {
	var out plan.BloatSpan
	data, err := json.Marshal(s)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(data, &out)
}

// countJobSeries counts exposition series labelled with a job: after
// every job is unregistered there should be none.
func countJobSeries(p promSnapshot) int {
	n := 0
	for series := range p {
		if strings.Contains(series, `job="`) {
			n++
		}
	}
	return n
}
