package main

import (
	"fmt"
	"time"

	"github.com/xft-consensus/xft/internal/campaign"
)

// campaign-sim: back-to-back kitchen-sink campaigns (n = 7, 400
// open-loop clients, zk app, crash/partition/byzantine/lag windows) in
// the deterministic simulator, each seeded from the run's seed. The
// fault phase is shortened from the profile's 20 s so that several
// campaigns fit in one run and their per-schedule differences average
// out; everything else keeps the profile's defaults.
const (
	campaignHorizon = 6 * time.Second
	// campaignSetups is how many minimal campaigns (the full cluster
	// and 400 clients, a 1 ms fault phase) a run times for setup_s.
	campaignSetups = 15
)

func runCampaign(o runOpts) (*result, error) {
	res := newResult()
	cfg := func(seed int64, horizon time.Duration) campaign.Config {
		return campaign.Config{Profile: campaign.KitchenSink, Seed: seed, Horizon: horizon}
	}
	var setups []float64
	for i := 0; i < campaignSetups; i++ {
		t0 := time.Now()
		r := campaign.Run(cfg(o.seed*1000+int64(i), time.Millisecond))
		setups = append(setups, time.Since(t0).Seconds())
		res.attempted++
		if !r.OK() {
			res.failed++
			res.checkf("setup campaign %q: %v", r.Repro, r.Violations)
		}
	}
	res.e2e["setup_s"] = median(setups)

	var (
		walls                                    []float64
		acked, commits, viewChanges, retransmits uint64
	)
	win := startWindow()
	for i := 0; len(walls) == 0 || time.Since(win.start) < o.seconds; i++ {
		t0 := time.Now()
		r := campaign.Run(cfg(o.seed*1000+int64(i), campaignHorizon))
		walls = append(walls, time.Since(t0).Seconds())
		res.attempted++
		if !r.OK() {
			res.failed++
			res.checkf("campaign %q: %d violations, first: %v", r.Repro, len(r.Violations), r.Violations[0])
		}
		acked += r.Acked
		commits += r.Commits
		viewChanges += r.ViewChanges
		retransmits += r.Retransmits
		res.notef("campaign seed %d: %.3f s wall, %d acked, %d replica commits, %d view changes, %d retransmits, trace %s",
			r.Config.Seed, walls[len(walls)-1], r.Acked, r.Commits, r.ViewChanges, r.Retransmits, r.TraceDigest)
	}
	win.stop()
	win.report(res, int(acked))
	res.e2e["throughput_ops_s"] = float64(acked) / win.elapsed.Seconds()
	res.notef("%d campaigns: %.1f simulated client ops per wall second, %.2f us wall per replica commit",
		len(walls), res.e2e["throughput_ops_s"], float64(win.elapsed.Microseconds())/float64(commits))
	L := res.layer
	L["campaign.commits"] = float64(commits)
	L["campaign.acked"] = float64(acked)
	L["campaign.view_changes"] = float64(viewChanges)
	L["campaign.retransmits"] = float64(retransmits)
	L["campaign.wall_us_per_commit"] = div(float64(win.elapsed)/1e3, float64(commits))
	L["campaign.sim_wall_s"] = median(walls)
	if acked == 0 {
		return nil, fmt.Errorf("no campaign acknowledged an operation")
	}
	return res, nil
}
