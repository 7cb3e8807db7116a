package keys

import "aecrypto"

// LeakOnSuccess: the root is used and abandoned on the success path.
func LeakOnSuccess(p Provider, path string, wrapped []byte) error {
	root, err := p.Unwrap(path, wrapped) // want `key material is not zeroized on every return path`
	if err != nil {
		return err
	}
	use(root)
	return nil
}

// LeakOneBranch: zeroizing in one branch does not discharge the other —
// the property is per return path.
func LeakOneBranch(p Provider, path string, wrapped []byte) error {
	root, err := p.Unwrap(path, wrapped) // want `key material is not zeroized on every return path`
	if err != nil {
		return err
	}
	if cond() {
		aecrypto.Zeroize(root)
		return nil
	}
	use(root)
	return nil
}

// LeakOneBranchMerged: the same with both branches falling through to one
// return — the zeroized path merging with a live one still leaks.
func LeakOneBranchMerged(p Provider, path string, wrapped []byte) error {
	root, err := p.Unwrap(path, wrapped) // want `key material is not zeroized on every return path`
	if err != nil {
		return err
	}
	if cond() {
		aecrypto.Zeroize(root)
	}
	use(root)
	return nil
}

// LeakConditionalDefer: a zeroize deferred on one branch only runs on that
// branch's paths.
func LeakConditionalDefer() error {
	root, err := aecrypto.GenerateKey() // want `key material is not zeroized on every return path`
	if err != nil {
		return err
	}
	if cond() {
		defer aecrypto.Zeroize(root)
	}
	use(root)
	return nil
}

// LeakGenerate: generated keys carry the same obligation.
func LeakGenerate() error {
	root, err := aecrypto.GenerateKey() // want `key material is not zeroized on every return path`
	if err != nil {
		return err
	}
	use(root)
	return nil
}

// LeakInClosure: function literals are checked as independent functions.
func LeakInClosure(p Provider, path string, wrapped []byte) func() {
	return func() {
		root, _ := p.Unwrap(path, wrapped) // want `key material is not zeroized on every return path`
		use(root)
	}
}

// LeakAfterOverwrite: reassigning the variable abandons the original buffer
// without wiping it.
func LeakAfterOverwrite(p Provider, path string, wrapped []byte) error {
	root, err := p.Unwrap(path, wrapped) // want `key material is not zeroized on every return path`
	if err != nil {
		return err
	}
	use(root)
	root = nil
	_ = root
	return nil
}
