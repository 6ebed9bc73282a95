// Package refpair is the refpair analyzer's fixture: generation
// refcount acquire/release pairing.
package refpair

import "errors"

type generation struct{}

func (g *generation) release() {}
func (g *generation) retire()  {}

type pool struct{}

func (p *pool) acquire() (*generation, error) { return &generation{}, nil }

var errClosed = errors.New("closed")

// deferredOK is the corrected form: release deferred right after the
// error check, so every return path — panics included — unpins.
func deferredOK(p *pool) error {
	g, err := p.acquire()
	if err != nil {
		return err
	}
	defer g.release()
	return nil
}

// deferredClosureOK releases inside a deferred closure; still covered.
func deferredClosureOK(p *pool) error {
	g, err := p.acquire()
	if err != nil {
		return err
	}
	defer func() { g.release() }()
	return nil
}

// retireOK: retire drops the owner reference, counting as the release.
func retireOK(p *pool) {
	g, err := p.acquire()
	if err != nil {
		return
	}
	defer g.retire()
}

func notDeferred(p *pool) error {
	g, err := p.acquire() // want `release of "g" is not deferred`
	if err != nil {
		return err
	}
	if somethingWrong() {
		return errClosed // leaks g on this path
	}
	g.release()
	return nil
}

func leaked(p *pool) error {
	g, err := p.acquire() // want `no matching release/retire`
	if err != nil {
		return err
	}
	_ = g
	return nil
}

func discarded(p *pool) {
	_, _ = p.acquire() // want `acquire result discarded`
}

// suppressed pins a generation across a hand-off on purpose; the
// justification names the protocol.
func suppressed(p *pool) *generation {
	//qlint:ignore refpair ownership transfers to the caller, which releases
	g, _ := p.acquire()
	return g
}

// nested closures are independent scopes: the literal's own acquire
// needs its own defer.
func nestedScopes(p *pool) {
	fn := func() {
		g, err := p.acquire() // want `no matching release/retire`
		if err != nil {
			return
		}
		_ = g
	}
	fn()
	g, err := p.acquire()
	if err != nil {
		return
	}
	defer g.release()
}

// enter is a request gate: what it pins is the caller's to release.
func (p *pool) enter() (*generation, error) { return p.acquire() }

// gatedLeak enters through the gate and never releases.
func gatedLeak(p *pool) {
	g, _ := p.enter() // want `no matching release/retire`
	_ = g
}

func somethingWrong() bool { return false }
