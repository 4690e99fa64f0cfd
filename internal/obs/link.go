package obs

import (
	"fmt"
	"sort"
	"strings"
)

// link is a child registry exposed through its parent under one extra
// label (see Registry.Link).
type link struct {
	label, value string
	reg          *Registry
}

// Link exposes every family registered in child through r: the child's
// series render, snapshot and diff as r's own, with label=value
// appended as their last label. Values are read in place at each scrape
// or snapshot; linking copies nothing and adds no work on any observe
// path. Linking again under the same label and value replaces the
// previous child — how a fleet points a restarted shard's series at
// its new engine generation. Only child's own families are exposed,
// not registries linked into child.
//
// A name registered both in r and in a linked child, or in two linked
// children with a different kind or label set, panics, as a
// conflicting registration does. Link checks the families present now;
// a conflicting family registered later panics at the next scrape.
func (r *Registry) Link(label, value string, child *Registry) {
	if !nameRE.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid link label name %q", label))
	}
	l := link{label: label, value: value, reg: child}
	r.mu.Lock()
	replaced := false
	for i := range r.links {
		if r.links[i].label == label && r.links[i].value == value {
			r.links[i], replaced = l, true
		}
	}
	if !replaced {
		r.links = append(r.links, l)
	}
	r.mu.Unlock()
	r.gather()
}

// view is one metric name as exposed: r's own family, or the families
// of that name in linked registries, under one HELP/TYPE header.
type view struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	parts  []part
}

// part is one family contributing to a view; a linked family's series
// carry label=value after their own label values.
type part struct {
	fam          *family
	label, value string
}

// row is one series of a view: its label values aligned with the
// view's label names, and the live instrument.
type row struct {
	values []string
	m      any
}

// familyList lists r's own families under its read lock.
func (r *Registry) familyList() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	return fams
}

// gather collects r's families and those of its linked registries into
// one view per name, sorted by name. Linked parts keep link order, so a
// fleet's shards render in shard order.
func (r *Registry) gather() []*view {
	r.mu.RLock()
	links := append([]link(nil), r.links...)
	r.mu.RUnlock()

	byName := map[string]*view{}
	var out []*view
	for _, f := range r.familyList() {
		v := &view{name: f.name, help: f.help, kind: f.kind, labels: f.labels, parts: []part{{fam: f}}}
		byName[f.name] = v
		out = append(out, v)
	}
	for _, l := range links {
		for _, f := range l.reg.familyList() {
			labels := append(append([]string(nil), f.labels...), l.label)
			v, ok := byName[f.name]
			switch {
			case !ok:
				v = &view{name: f.name, help: f.help, kind: f.kind, labels: labels}
				byName[f.name] = v
				out = append(out, v)
			case v.parts[0].label == "":
				panic(fmt.Sprintf("obs: metric %q registered both in a registry and in the registry linked under %s=%q", f.name, l.label, l.value))
			case v.kind != f.kind:
				panic(fmt.Sprintf("obs: linked metric %q is a %s under %s=%q (was %s)", f.name, f.kind, l.label, l.value, v.kind))
			case strings.Join(v.labels, "\x00") != strings.Join(labels, "\x00"):
				panic(fmt.Sprintf("obs: linked metric %q has labels %v under %s=%q (was %v)", f.name, labels, l.label, l.value, v.labels))
			}
			v.parts = append(v.parts, part{fam: f, label: l.label, value: l.value})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// rows reads every series of the view: each part's children sorted by
// label values, parts in order.
func (v *view) rows() []row {
	var out []row
	for _, p := range v.parts {
		p.fam.mu.Lock()
		keys := make([]string, 0, len(p.fam.children))
		for k := range p.fam.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var values []string
			if len(p.fam.labels) > 0 {
				values = strings.Split(k, "\x00")
			}
			if p.label != "" {
				values = append(values, p.value)
			}
			out = append(out, row{values: values, m: p.fam.children[k]})
		}
		p.fam.mu.Unlock()
	}
	return out
}
