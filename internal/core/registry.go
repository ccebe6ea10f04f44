package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Factory constructs a Code. Factories are registered by the concrete
// code packages in their init functions.
type Factory func() Code

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register makes a code constructor available under the given name.
// It builds the code once and panics when its layout fails
// VerifyPlacement or the name is taken: either is a programming error
// during package initialization, and a code with a broken layout must
// never reach a store.
func Register(name string, f Factory) {
	if err := VerifyPlacement(f()); err != nil {
		panic(fmt.Sprintf("core: registering %q: %v", name, err))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate code registration %q", name))
	}
	registry[name] = f
}

// New constructs the code registered under name.
func New(name string) (Code, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown code %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names returns the registered code names in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return slices.Sorted(maps.Keys(registry))
}
