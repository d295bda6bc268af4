package seedindex

import "context"

// Resolve exposes the batch resolve of a query's keys (sorted, no
// repeats) to the external tests.
func Resolve(ctx context.Context, ix *Index, keys []uint32) ([][]uint32, error) {
	return ix.lists(ctx, keys)
}
