package query

import "context"

// PartialProbes runs RunPartial and also reports how many times its scan
// probed the group map.
func PartialProbes(ctx context.Context, site Site, p *Plan) (*Partial, int, error) {
	ex := newExec(site, p)
	part, err := ex.partial(ctx)
	return part, ex.probes, err
}

// PartialFolds runs RunPartial and also reports how many times it folded
// into the aggregates: once per row, or once per distinct row.
func PartialFolds(ctx context.Context, site Site, p *Plan) (*Partial, int, error) {
	ex := newExec(site, p)
	part, err := ex.partial(ctx)
	return part, ex.folds, err
}
