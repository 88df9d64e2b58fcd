package qasm

import (
	"fmt"
	"math"
	"strconv"

	"ssync/internal/circuit"
)

// gateDef is a user-declared gate: formal parameter names, formal qubit
// argument names, and a body of calls to be macro-expanded at application.
type gateDef struct {
	name   string
	params []string
	qargs  []string
	body   []bodyCall
}

// bodyCall is one statement inside a gate body.
type bodyCall struct {
	name    string
	params  []expr   // parameter expressions over the gate's formals
	qargs   []string // formal qubit names
	barrier bool
}

// reg is a declared quantum or classical register.
type reg struct {
	name   string
	size   int
	offset int // base index in the flat qubit space (qreg only)
}

// Parser parses one OpenQASM 2.0 program into a circuit. It reads one
// token ahead, pulling tokens from the lexer on demand.
type parser struct {
	lex *lexer
	tok token // the current, not yet consumed, token
	// lexErr is the first lexer failure. It ends the parse: the parser
	// reads EOF from then on, and Parse reports lexErr.
	lexErr error
	qregs  map[string]*reg
	cregs  map[string]*reg
	order  []*reg // qregs in declaration order
	gates  map[string]*gateDef
	circ   *circuit.Circuit
	// cond is the pending classical control while parsing the operation
	// of an `if (creg==n) ...;` statement; appendGate stamps it onto
	// every gate it emits.
	cond *circuit.Condition
}

// native lists the gates the circuit IR understands natively;
// applications of these are emitted directly instead of macro-expanded.
var native = map[string]bool{
	"id": true, "x": true, "y": true, "z": true, "h": true,
	"s": true, "sdg": true, "t": true, "tdg": true,
	"sx": true, "sxdg": true,
	"rx": true, "ry": true, "rz": true,
	"u1": true, "u2": true, "u3": true, "u": true, "p": true,
	"cx": true, "CX": true, "cz": true, "cy": true, "ch": true,
	"swap": true, "crx": true, "cry": true, "crz": true,
	"cp": true, "cu1": true, "rxx": true, "ryy": true, "rzz": true,
	"ms": true, "ccx": true, "cswap": true,
}

// Parse parses QASM source text and returns the flattened circuit. Qubits
// are numbered by register declaration order. Every error carries the
// line and column it arose at.
func Parse(src string) (*circuit.Circuit, error) {
	p := &parser{
		lex:   newLexer(src),
		qregs: map[string]*reg{},
		cregs: map[string]*reg{},
		gates: map[string]*gateDef{},
	}
	p.advance()
	err := p.parseProgram()
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return p.circ, nil
}

func (p *parser) cur() token { return p.tok }

// advance pulls the next token from the lexer into p.tok.
func (p *parser) advance() {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		t = token{kind: tokEOF, line: p.lex.line, col: p.lex.col}
	}
	p.tok = t
}

// next consumes and returns the current token. EOF is never consumed, so
// a program that ends early reads as EOF from then on.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.advance()
	}
	return t
}

// errorfAt positions a parse error at a specific token's line and column.
func (p *parser) errorfAt(t token, format string, args ...interface{}) error {
	return at(t, fmt.Errorf(format, args...))
}

// at positions err at t unless it is nil or already carries a position.
func at(t token, err error) error {
	if _, ok := err.(*posError); ok || err == nil {
		return err
	}
	return &posError{line: t.line, col: t.col, err: err}
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return p.errorfAt(p.cur(), format, args...)
}

func (p *parser) expectSymbol(s string) error {
	t := p.next()
	if (t.kind != tokSymbol && t.kind != tokArrow) || t.text != s {
		return p.errorfAt(t, "expected %q, got %q", s, t.String())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errorfAt(t, "expected identifier, got %q", t.String())
	}
	return t.text, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, p.errorfAt(t, "expected integer, got %q", t.String())
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorfAt(t, "expected integer, got %q", t.text)
	}
	return n, nil
}

func (p *parser) parseProgram() error {
	// Optional OPENQASM header.
	if p.cur().kind == tokIdent && p.cur().text == "OPENQASM" {
		p.next()
		if p.next().kind != tokNumber {
			return p.errorf("malformed OPENQASM version")
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
	}
	for p.cur().kind != tokEOF {
		// Errors raised while expanding and emitting the statement's
		// gates carry no token of their own; position them at the
		// statement.
		stmt := p.cur()
		if err := p.parseStatement(); err != nil {
			return at(stmt, err)
		}
	}
	if len(p.order) == 0 {
		return p.errorf("program declares no quantum registers")
	}
	// A program may declare registers and apply no gates.
	return at(p.cur(), p.ensureCircuit())
}

func (p *parser) ensureCircuit() error {
	if p.circ != nil {
		return nil
	}
	total := 0
	for _, r := range p.order {
		r.offset = total
		total += r.size
		// Each register is individually capped, so checking the running
		// total every step also makes overflow unreachable.
		if total > maxDeclaredQubits {
			return fmt.Errorf("program declares more than %d qubits", maxDeclaredQubits)
		}
	}
	if total == 0 {
		return fmt.Errorf("no qubits declared before first instruction")
	}
	p.circ = circuit.NewCircuit(total)
	return nil
}

func (p *parser) parseStatement() error {
	t := p.cur()
	if t.kind != tokIdent {
		return p.errorf("expected statement, got %q", t.String())
	}
	switch t.text {
	case "include":
		p.next()
		if p.next().kind != tokString {
			return p.errorf("include expects a string filename")
		}
		return p.expectSymbol(";")
	case "qreg", "creg":
		kind := p.next().text
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectSymbol("["); err != nil {
			return err
		}
		n, err := p.expectInt()
		if err != nil {
			return err
		}
		if n <= 0 {
			return p.errorf("register %q has non-positive size %d", name, n)
		}
		if n > maxDeclaredQubits {
			return p.errorf("register %q size %d exceeds the %d-qubit limit", name, n, maxDeclaredQubits)
		}
		if err := p.expectSymbol("]"); err != nil {
			return err
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
		if p.circ != nil && kind == "qreg" {
			return p.errorf("qreg %q declared after first instruction", name)
		}
		r := &reg{name: name, size: n}
		if kind == "qreg" {
			if _, dup := p.qregs[name]; dup {
				return p.errorf("duplicate qreg %q", name)
			}
			p.qregs[name] = r
			p.order = append(p.order, r)
		} else {
			p.cregs[name] = r
		}
		return nil
	case "gate":
		return p.parseGateDef()
	case "opaque":
		return p.errorf("opaque gates are not supported")
	case "if":
		return p.parseIf()
	case "measure":
		return p.parseMeasure()
	case "reset":
		return p.parseReset()
	case "barrier":
		p.next()
		if err := p.ensureCircuit(); err != nil {
			return err
		}
		var all []int
		for {
			qs, err := p.parseArgument()
			if err != nil {
				return err
			}
			all = append(all, qs...)
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
		return p.appendGate(circuit.New("barrier", all))
	default:
		return p.parseGateCall()
	}
}

// parseIf parses `if (creg == n) qop;` — OpenQASM 2.0 classical control —
// and emits the conditioned operation with its Condition attached. Only
// quantum operations (gate applications, measure, reset) may be
// conditioned; malformed conditions fail with the offending token's
// line/col position.
func (p *parser) parseIf() error {
	p.next() // 'if'
	if err := p.expectSymbol("("); err != nil {
		return err
	}
	cregTok := p.cur()
	cname, err := p.expectIdent()
	if err != nil {
		return err
	}
	r, ok := p.cregs[cname]
	if !ok {
		return p.errorfAt(cregTok, "if condition references undeclared creg %q", cname)
	}
	// '==' reaches us as two adjacent '=' symbol tokens.
	if err := p.expectSymbol("="); err != nil {
		return err
	}
	if err := p.expectSymbol("="); err != nil {
		return err
	}
	valTok := p.cur()
	val, err := p.expectInt()
	if err != nil {
		return err
	}
	// A creg of w bits holds values in [0, 2^w); a condition outside that
	// range could never fire and is certainly a program bug.
	if r.size < 63 && val >= 1<<uint(r.size) {
		return p.errorfAt(valTok, "condition value %d does not fit creg %s[%d]", val, cname, r.size)
	}
	if err := p.expectSymbol(")"); err != nil {
		return err
	}
	opTok := p.cur()
	if opTok.kind != tokIdent {
		return p.errorfAt(opTok, "expected a gate application, measure or reset after if (...), got %q", opTok.String())
	}
	switch opTok.text {
	case "qreg", "creg", "gate", "opaque", "include", "barrier", "if":
		return p.errorfAt(opTok, "%q cannot be classically controlled", opTok.text)
	}
	p.cond = &circuit.Condition{Creg: cname, Width: r.size, Value: val}
	defer func() { p.cond = nil }()
	switch opTok.text {
	case "measure":
		return p.parseMeasure()
	case "reset":
		return p.parseReset()
	default:
		return p.parseGateCall()
	}
}

// parseMeasure parses `measure qarg -> carg;`.
func (p *parser) parseMeasure() error {
	p.next() // 'measure'
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	qs, err := p.parseArgument()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	// classical target: id or id[idx]; validated for existence only.
	cname, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, ok := p.cregs[cname]; !ok {
		return p.errorf("measure into undeclared creg %q", cname)
	}
	if p.cur().kind == tokSymbol && p.cur().text == "[" {
		p.next()
		if _, err := p.expectInt(); err != nil {
			return err
		}
		if err := p.expectSymbol("]"); err != nil {
			return err
		}
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	for _, q := range qs {
		if err := p.appendGate(circuit.New("measure", []int{q})); err != nil {
			return err
		}
	}
	return nil
}

// parseReset parses `reset qarg;`.
func (p *parser) parseReset() error {
	p.next() // 'reset'
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	qs, err := p.parseArgument()
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	for _, q := range qs {
		if err := p.appendGate(circuit.New("reset", []int{q})); err != nil {
			return err
		}
	}
	return nil
}

// parseArgument parses `id` or `id[idx]` and returns the flat qubit indices
// it denotes (the whole register for the bare-identifier form).
func (p *parser) parseArgument() ([]int, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	r, ok := p.qregs[name]
	if !ok {
		return nil, p.errorf("use of undeclared qreg %q", name)
	}
	if p.cur().kind == tokSymbol && p.cur().text == "[" {
		p.next()
		idx, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		if idx < 0 || idx >= r.size {
			return nil, p.errorf("index %d out of range for qreg %s[%d]", idx, name, r.size)
		}
		return []int{r.offset + idx}, nil
	}
	qs := make([]int, r.size)
	for i := range qs {
		qs[i] = r.offset + i
	}
	return qs, nil
}

// parseGateDef parses `gate name(p1,p2) q1,q2 { body }`.
func (p *parser) parseGateDef() error {
	p.next() // 'gate'
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &gateDef{name: name}
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.next()
		if !(p.cur().kind == tokSymbol && p.cur().text == ")") {
			for {
				id, err := p.expectIdent()
				if err != nil {
					return err
				}
				def.params = append(def.params, id)
				if p.cur().kind == tokSymbol && p.cur().text == "," {
					p.next()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return err
		}
		def.qargs = append(def.qargs, id)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	for !(p.cur().kind == tokSymbol && p.cur().text == "}") {
		if p.cur().kind == tokEOF {
			return p.errorf("unterminated gate body for %q", name)
		}
		call, err := p.parseBodyCall(def)
		if err != nil {
			return err
		}
		def.body = append(def.body, call)
	}
	p.next() // '}'
	if _, dup := p.gates[name]; dup {
		return p.errorf("duplicate gate definition %q", name)
	}
	p.gates[name] = def
	return nil
}

func (p *parser) parseBodyCall(def *gateDef) (bodyCall, error) {
	name, err := p.expectIdent()
	if err != nil {
		return bodyCall{}, err
	}
	call := bodyCall{name: name}
	if name == "barrier" {
		call.barrier = true
	}
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.next()
		if !(p.cur().kind == tokSymbol && p.cur().text == ")") {
			for {
				e, err := p.parseExpr(def.params)
				if err != nil {
					return bodyCall{}, err
				}
				call.params = append(call.params, e)
				if p.cur().kind == tokSymbol && p.cur().text == "," {
					p.next()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return bodyCall{}, err
		}
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return bodyCall{}, err
		}
		found := false
		for _, q := range def.qargs {
			if q == id {
				found = true
				break
			}
		}
		if !found {
			return bodyCall{}, p.errorf("gate %q body references unknown qubit %q", def.name, id)
		}
		call.qargs = append(call.qargs, id)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return bodyCall{}, err
	}
	return call, nil
}

// parseGateCall parses a top-level gate application with register
// broadcasting and emits the expanded gates into the circuit.
func (p *parser) parseGateCall() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	var params []float64
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.next()
		if !(p.cur().kind == tokSymbol && p.cur().text == ")") {
			for {
				e, err := p.parseExpr(nil)
				if err != nil {
					return err
				}
				v, err := e.eval(nil)
				if err != nil {
					return err
				}
				params = append(params, v)
				if p.cur().kind == tokSymbol && p.cur().text == "," {
					p.next()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	var args [][]int
	for {
		qs, err := p.parseArgument()
		if err != nil {
			return err
		}
		args = append(args, qs)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	// Broadcasting: every multi-qubit argument must have the same length.
	width := 1
	for _, a := range args {
		if len(a) > 1 {
			if width != 1 && len(a) != width {
				return p.errorf("mismatched register sizes in broadcast application of %q", name)
			}
			width = len(a)
		}
	}
	for i := 0; i < width; i++ {
		flat := make([]int, len(args))
		for j, a := range args {
			if len(a) == 1 {
				flat[j] = a[0]
			} else {
				flat[j] = a[i]
			}
		}
		if err := p.applyGate(name, params, flat, 0); err != nil {
			return err
		}
	}
	return nil
}

const maxExpansionDepth = 64

// maxDeclaredQubits and maxParsedGates bound parser allocations so a
// small hostile program (e.g. a broadcast gate over a huge register, or
// an 8 MiB body of broadcasts) cannot exhaust memory before any
// downstream feasibility check runs.
const (
	maxDeclaredQubits = 1 << 20
	maxParsedGates    = 1 << 22
)

// appendGate is circuit.Append behind the program-size guard; it stamps
// any pending `if` condition onto the gate (macro-expanded bodies
// included: the classical register cannot change mid-expansion, so
// conditioning every expanded piece is exact).
func (p *parser) appendGate(g circuit.Gate) error {
	if len(p.circ.Gates) >= maxParsedGates {
		return fmt.Errorf("program exceeds the %d-gate limit", maxParsedGates)
	}
	// Barriers are scheduling fences, not quantum operations: a condition
	// neither strengthens nor weakens them, so they stay unconditioned
	// (and the writer's output stays re-parseable).
	if p.cond != nil && g.Cond == nil && g.Name != "barrier" {
		cond := *p.cond
		g.Cond = &cond
	}
	return p.circ.Append(g)
}

// applyGate emits one application of `name`, expanding user definitions.
func (p *parser) applyGate(name string, params []float64, qubits []int, depth int) error {
	if depth > maxExpansionDepth {
		return fmt.Errorf("gate expansion exceeds depth %d (recursive definition of %q?)", maxExpansionDepth, name)
	}
	canonical := name
	switch name {
	case "CX":
		canonical = "cx"
	case "U":
		canonical = "u3"
	}
	if native[canonical] {
		// An infinite or NaN angle has no meaning and no QASM spelling.
		for _, v := range params {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("gate %q parameter evaluates to %v", name, v)
			}
		}
		return p.appendGate(circuit.New(canonical, qubits, params...))
	}
	def, ok := p.gates[name]
	if !ok {
		return fmt.Errorf("call of undefined gate %q", name)
	}
	if len(params) != len(def.params) {
		return fmt.Errorf("gate %q wants %d params, got %d", name, len(def.params), len(params))
	}
	if len(qubits) != len(def.qargs) {
		return fmt.Errorf("gate %q wants %d qubits, got %d", name, len(def.qargs), len(qubits))
	}
	env := map[string]float64{}
	for i, pn := range def.params {
		env[pn] = params[i]
	}
	qenv := map[string]int{}
	for i, qn := range def.qargs {
		qenv[qn] = qubits[i]
	}
	for _, call := range def.body {
		qs := make([]int, len(call.qargs))
		for i, qn := range call.qargs {
			qs[i] = qenv[qn]
		}
		if call.barrier {
			if err := p.appendGate(circuit.New("barrier", qs)); err != nil {
				return err
			}
			continue
		}
		ps := make([]float64, len(call.params))
		for i, e := range call.params {
			v, err := e.eval(env)
			if err != nil {
				return err
			}
			ps[i] = v
		}
		if err := p.applyGate(call.name, ps, qs, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// ---- constant expression parsing & evaluation ----

type expr interface {
	eval(env map[string]float64) (float64, error)
}

type numExpr float64

func (n numExpr) eval(map[string]float64) (float64, error) { return float64(n), nil }

type varExpr string

func (v varExpr) eval(env map[string]float64) (float64, error) {
	if string(v) == "pi" {
		return math.Pi, nil
	}
	if env != nil {
		if val, ok := env[string(v)]; ok {
			return val, nil
		}
	}
	return 0, fmt.Errorf("unknown identifier %q in expression", string(v))
}

type unaryExpr struct{ x expr }

func (u unaryExpr) eval(env map[string]float64) (float64, error) {
	v, err := u.x.eval(env)
	return -v, err
}

type binExpr struct {
	op   byte
	l, r expr
}

func (b binExpr) eval(env map[string]float64) (float64, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("division by zero in parameter expression")
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, fmt.Errorf("unknown operator %q", string(b.op))
}

type funcExpr struct {
	name string
	x    expr
}

func (f funcExpr) eval(env map[string]float64) (float64, error) {
	v, err := f.x.eval(env)
	if err != nil {
		return 0, err
	}
	switch f.name {
	case "sin":
		return math.Sin(v), nil
	case "cos":
		return math.Cos(v), nil
	case "tan":
		return math.Tan(v), nil
	case "exp":
		return math.Exp(v), nil
	case "ln":
		return math.Log(v), nil
	case "sqrt":
		return math.Sqrt(v), nil
	}
	return 0, fmt.Errorf("unknown function %q", f.name)
}

// parseExpr parses an additive expression. formals, when non-nil, is the
// set of identifiers allowed as free variables (gate formal parameters).
func (p *parser) parseExpr(formals []string) (expr, error) {
	left, err := p.parseTerm(formals)
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.next().text[0]
		right, err := p.parseTerm(formals)
		if err != nil {
			return nil, err
		}
		left = binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseTerm(formals []string) (expr, error) {
	left, err := p.parseUnary(formals)
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/") {
		op := p.next().text[0]
		right, err := p.parseUnary(formals)
		if err != nil {
			return nil, err
		}
		left = binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseUnary(formals []string) (expr, error) {
	if p.cur().kind == tokSymbol && p.cur().text == "-" {
		p.next()
		x, err := p.parseUnary(formals)
		if err != nil {
			return nil, err
		}
		return unaryExpr{x}, nil
	}
	return p.parsePower(formals)
}

func (p *parser) parsePower(formals []string) (expr, error) {
	base, err := p.parseAtom(formals)
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokSymbol && p.cur().text == "^" {
		p.next()
		exp, err := p.parseUnary(formals)
		if err != nil {
			return nil, err
		}
		return binExpr{op: '^', l: base, r: exp}, nil
	}
	return base, nil
}

func (p *parser) parseAtom(formals []string) (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return numExpr(v), nil
	case t.kind == tokIdent:
		p.next()
		switch t.text {
		case "sin", "cos", "tan", "exp", "ln", "sqrt":
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			x, err := p.parseExpr(formals)
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return funcExpr{name: t.text, x: x}, nil
		case "pi":
			return varExpr("pi"), nil
		default:
			if formals != nil {
				for _, f := range formals {
					if f == t.text {
						return varExpr(t.text), nil
					}
				}
			}
			return nil, p.errorf("unknown identifier %q in expression", t.text)
		}
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		x, err := p.parseExpr(formals)
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errorf("expected expression, got %q", t.String())
}
