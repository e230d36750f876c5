package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"dtsvliw/internal/metrics"
	"dtsvliw/internal/telemetry"
)

// cloneConfig copies cfg with a FUs slice of its own.
func cloneConfig(cfg Config) Config {
	c := cfg
	c.FUs = append(c.FUs[:0:0], cfg.FUs...)
	return c
}

// configMutations walks Config by reflection and returns one mutation per
// leaf: every number, flag and string (nested cache and pipeline fields
// included), every FUs element, the FUs length, and the identity of each
// pointer. A field of a kind the walk does not know fails the test, so a
// new field cannot slip past it.
func configMutations(t *testing.T, base Config) map[string]func(*Config) {
	t.Helper()
	muts := map[string]func(*Config){}
	var walk func(name string, typ reflect.Type, get func(*Config) reflect.Value)
	walk = func(name string, typ reflect.Type, get func(*Config) reflect.Value) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(name+"."+f.Name, f.Type, func(c *Config) reflect.Value { return get(c).Field(i) })
			}
		case reflect.Slice:
			for j := 0; j < get(&base).Len(); j++ {
				walk(fmt.Sprintf("%s[%d]", name, j), typ.Elem(), func(c *Config) reflect.Value { return get(c).Index(j) })
			}
			muts[name+" longer"] = func(c *Config) {
				v := get(c)
				v.Set(reflect.Append(v, reflect.Zero(typ.Elem())))
			}
		case reflect.Pointer:
			muts[name] = func(c *Config) { get(c).Set(reflect.New(typ.Elem())) }
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			muts[name] = func(c *Config) { v := get(c); v.SetInt(v.Int() + 1) }
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			muts[name] = func(c *Config) { v := get(c); v.SetUint(v.Uint() + 1) }
		case reflect.Bool:
			muts[name] = func(c *Config) { v := get(c); v.SetBool(!v.Bool()) }
		case reflect.String:
			muts[name] = func(c *Config) { v := get(c); v.SetString(v.String() + "x") }
		default:
			t.Fatalf("%s: Config field of kind %v is not covered by the walk", name, typ.Kind())
		}
	}
	walk("Config", reflect.TypeOf(base), func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem() })
	return muts
}

// TestPoolKeyCoversConfig: changing any Config field changes the pool
// key, and equal configs give equal keys — both for a config without
// attachments and for one with a telemetry config and a registry.
func TestPoolKeyCoversConfig(t *testing.T) {
	plain := FeasibleConfig()
	plain.SchedStrategy = "optimal"
	attached := cloneConfig(plain)
	attached.Telemetry = &telemetry.Config{}
	attached.Metrics = metrics.NewRegistry()
	for _, base := range []Config{plain, attached} {
		key := newPoolKey(&base)
		same := cloneConfig(base)
		if newPoolKey(&same) != key {
			t.Fatal("equal configs give different pool keys")
		}
		muts := configMutations(t, base)
		if len(muts) < 40 {
			t.Fatalf("walk found only %d mutable leaves", len(muts))
		}
		for name, mutate := range muts {
			c := cloneConfig(base)
			mutate(&c)
			if newPoolKey(&c) == key {
				t.Errorf("changing %s leaves the pool key unchanged", name)
			}
		}
	}
}

// TestPoolGetUsesKey: Get recycles a context only for an equal config.
func TestPoolGetUsesKey(t *testing.T) {
	cfg := FeasibleConfig()
	p := NewMachinePool()
	ctx, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(ctx)
	other := cloneConfig(cfg)
	other.FUs[0]++
	if got, _ := p.Get(other); got == ctx {
		t.Fatal("Get recycled a context for a different config")
	}
	if got, _ := p.Get(cloneConfig(cfg)); got != ctx {
		t.Fatal("Get did not recycle the context for an equal config")
	}
	if p.Hits != 1 || p.Misses != 2 {
		t.Fatalf("hits %d misses %d, want 1 and 2", p.Hits, p.Misses)
	}
}

// TestPrimaryWhereText: the fmt-free checkpoint description equals
// fmt's "primary pc=%#08x", in and out of the memoized text range.
func TestPrimaryWhereText(t *testing.T) {
	check := func(pc uint32) bool { return primaryWhereText(pc) == fmt.Sprintf("primary pc=%#08x", pc) }
	for _, pc := range []uint32{0, 1, 0xF, 0x10, 0x1000, 0xFFFFF, 0x100000, 0xFFFFFF, 0x1000000, 0x12345678, 0xFFFFFFFF} {
		if !check(pc) {
			t.Fatalf("primaryWhereText(%#x) = %q", pc, primaryWhereText(pc))
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}

	st := buildState(t, "\tmov 1, %o0\n\tta 0\n", 8)
	m, err := NewMachine(IdealConfig(4, 4), st)
	if err != nil {
		t.Fatal(err)
	}
	base, words := st.TextRange()
	for _, pc := range []uint32{base - 4, base, base + 2, base + 4*(words-1), base + 4*words} {
		for i := 0; i < 2; i++ { // the second call reads the table
			if got, want := m.primaryWhere(pc), fmt.Sprintf("primary pc=%#08x", pc); got != want {
				t.Fatalf("primaryWhere(%#x) = %q, want %q", pc, got, want)
			}
		}
	}
}
