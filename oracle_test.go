package trustmap

import (
	"context"
	"fmt"

	"trustmap/internal/engine"
	"trustmap/internal/tn"
)

// bulkResolveFresh is the from-scratch oracle the Store tests compare
// against: it resolves many objects sharing this network's trust mappings
// (Section 4) by binarizing and compiling the network anew on every call
// — no twin, no incremental apply, no epochs, no cache — and scanning the
// objects with a worker pool. Every user an object mentions becomes a
// root. The rows come back sorted by object key, as Store.ResolveBatch
// returns them. Engine ≡ SQL ≡ Algorithm 1 parity for the compiled path itself is
// internal/engine/parity_test.go's job.
func (n *Network) bulkResolveFresh(ctx context.Context, objects map[string]map[string]string, workers int) ([]ObjectRow, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	// Mark every user appearing in object maps as a root.
	shape := n.inner.Clone()
	for _, bs := range objects {
		for user := range bs {
			id := shape.UserID(user)
			if id < 0 {
				return nil, fmt.Errorf("trustmap: unknown user %q in object beliefs", user)
			}
			shape.SetExplicit(id, seedBelief)
		}
	}
	b := tn.Binarize(shape)
	// Root IDs in the binarized network: the hoisted belief nodes. Memoize
	// the lookup per user rather than redoing it per (object, user).
	rootOf := make(map[string]int)
	conv := make(map[string]map[int]tn.Value, len(objects))
	for k, bs := range objects {
		m := make(map[int]tn.Value, len(bs))
		for user, v := range bs {
			id, ok := rootOf[user]
			if !ok {
				id = tn.Carrier(b, shape.UserID(user))
				rootOf[user] = id
			}
			m[id] = tn.Value(v)
		}
		conv[k] = m
	}
	c, err := engine.Compile(b)
	if err != nil {
		return nil, err
	}
	res, err := c.Resolve(ctx, conv, engine.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	// Original IDs are a prefix of a fresh binarization: binIDs stays nil.
	return rowsOf(&epochSnap{comp: c, view: n.inner.Snapshot(nil)}, 0, res, objects), nil
}
