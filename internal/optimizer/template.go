package optimizer

import (
	"fmt"
	"math"
)

// Template is a query template (Definition 1): a parsed query with `?`
// placeholders. Its optimizer parameters are the selectivities of the
// parameterized predicates, so the plan space of a template with parameter
// degree r is [0,1]^r (Definition 2).
type Template struct {
	Name  string
	SQL   string
	Query *Query

	// params[i] is the predicate index (into Query.Preds) of placeholder i.
	params []int
}

// NewTemplate wraps a validated query as a template. It stamps the query
// with the template name and each predicate with its 1-based site — the
// stable identities the adaptive statistics layer keys corrections on.
func NewTemplate(name, sql string, q *Query) (*Template, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.Template = name
	for i := range q.Preds {
		q.Preds[i].Site = i + 1
	}
	t := &Template{Name: name, SQL: sql, Query: q}
	t.params = make([]int, q.ParamDegree())
	for i, p := range q.Preds {
		if p.Kind == PredCmpNum && p.ParamIdx >= 0 {
			t.params[p.ParamIdx] = i
		}
	}
	for _, pi := range t.params {
		p := q.Preds[pi]
		switch p.Op {
		case OpLE, OpLT, OpGE, OpGT:
		default:
			return nil, fmt.Errorf("optimizer: parameter %d uses %s; only range operators are parameterizable", p.ParamIdx, p.Op)
		}
	}
	return t, nil
}

// Degree returns the parameter degree r of the template.
func (t *Template) Degree() int { return len(t.params) }

// ParamPredicate returns the predicate bound to placeholder i.
func (t *Template) ParamPredicate(i int) Predicate {
	return t.Query.Preds[t.params[i]]
}

// Instance is a query instance (Definition 1): the template with actual
// values for all explicit parameters.
type Instance struct {
	Template *Template
	Values   []float64
}

// Instantiate binds parameter values, validating the count and rejecting
// NaN: a NaN parameter has no selectivity, so it has no plan space point.
// ±Inf is accepted; its selectivity clamps to the domain edge.
func (t *Template) Instantiate(values []float64) (Instance, error) {
	if len(values) != t.Degree() {
		return Instance{}, fmt.Errorf("optimizer: template %s needs %d values, got %d", t.Name, t.Degree(), len(values))
	}
	for i, v := range values {
		if math.IsNaN(v) {
			return Instance{}, fmt.Errorf("optimizer: template %s parameter %d is NaN", t.Name, i+1)
		}
	}
	return Instance{Template: t, Values: values}, nil
}

// SelectivityPoint is the normalization function f of Section II-A: it maps
// an instance's parameter values to the selectivities of the parameterized
// predicates — computed from the catalog exactly as the optimizer estimates
// them — yielding the instance's plan space point in [0,1]^r. It passes an
// empty template name to selectivity on purpose: points stay on UNcorrected
// base estimates so the learner's plan-space geometry (and every cached
// cluster model) does not churn each time a correction factor moves. The
// corrections shift which plan the optimizer assigns to a point, never
// where the point lies.
func (o *Optimizer) SelectivityPoint(inst Instance) ([]float64, error) {
	t := inst.Template
	if len(inst.Values) != t.Degree() {
		return nil, fmt.Errorf("optimizer: instance has %d values, template degree %d", len(inst.Values), t.Degree())
	}
	point := make([]float64, t.Degree())
	for i := range point {
		pred := t.ParamPredicate(i)
		pred.Value = inst.Values[i]
		tr := t.Query.Binding(pred.Col.Alias)
		if tr == nil {
			return nil, fmt.Errorf("optimizer: unbound alias %s", pred.Col.Alias)
		}
		s, err := o.selectivity("", tr.Table, pred)
		if err != nil {
			return nil, err
		}
		point[i] = s
	}
	return point, nil
}

// InstanceAt inverts SelectivityPoint: given a target plan space point, it
// finds parameter values whose predicate selectivities approximate the
// point, using catalog quantiles. This is how the workload generators
// realize trajectories through the plan space as concrete query instances.
func (o *Optimizer) InstanceAt(t *Template, point []float64) (Instance, error) {
	if len(point) != t.Degree() {
		return Instance{}, fmt.Errorf("optimizer: point has %d coordinates, template degree %d", len(point), t.Degree())
	}
	values := make([]float64, t.Degree())
	for i, p := range point {
		p = math.Max(0, math.Min(1, p))
		pred := t.ParamPredicate(i)
		tr := t.Query.Binding(pred.Col.Alias)
		if tr == nil {
			return Instance{}, fmt.Errorf("optimizer: unbound alias %s", pred.Col.Alias)
		}
		cs, err := o.cat.Column(tr.Table, pred.Col.Column)
		if err != nil {
			return Instance{}, err
		}
		switch pred.Op {
		case OpLE, OpLT:
			values[i] = cs.Quantile(p)
		case OpGE, OpGT:
			values[i] = cs.Quantile(1 - p)
		default:
			return Instance{}, fmt.Errorf("optimizer: parameter %d not invertible (%s)", i, pred.Op)
		}
	}
	return Instance{Template: t, Values: values}, nil
}

// OptimizeInstance optimizes a bound instance.
func (o *Optimizer) OptimizeInstance(inst Instance) (*Plan, error) {
	return o.Optimize(inst.Template.Query, inst.Values)
}
