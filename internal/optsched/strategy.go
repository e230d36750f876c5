package optsched

import "dtsvliw/internal/sched"

// StrategyName registers the optimal repacker in the scheduler's
// strategy registry: the machine schedules every block with the default
// FCFS placement and repacks it at flush time, so the VLIW Engine
// executes — and the differential oracle and blockcheck validate — the
// optimal schedules end-to-end.
const StrategyName = "optimal"

func init() {
	sched.RegisterStrategy(StrategyName, func(cfg sched.Config) sched.Strategy {
		return &strategy{cfg: cfg}
	})
}

type strategy struct {
	cfg sched.Config
}

func (st *strategy) Name() string                                           { return StrategyName }
func (st *strategy) WantFlushBefore(*sched.Scheduler, sched.Completed) bool { return false }
func (st *strategy) WantNewElement(*sched.Scheduler) bool                   { return false }
func (st *strategy) WantMoveUp(*sched.Scheduler, int) bool                  { return true }

func (st *strategy) FinishBlock(u *sched.Scheduler, b *sched.Block) {
	res := Repack(b, st.cfg, st.cfg.StrategyBudget)
	u.NoteRepack(b, res.OrigLIs, res.Proven, res.Nodes)
}
