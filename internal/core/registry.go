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
// Register panics on duplicate names, which indicates a programming
// error during package initialization.
func Register(name string, f Factory) {
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
