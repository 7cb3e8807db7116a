package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/tpcc"
)

// The TPC-C statement texts, exactly as internal/tpcc's Terminal issues them
// (§5.3 modifications included). The benchmark carries its own terminal
// because tpcc.Terminal offers no seam around its driver.Conn.Exec calls:
// timing each call from outside is what separates client transaction logic
// from the driver and everything below it. The ladder parses these same
// texts.
const (
	sqlDistrictBump   = "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = @w AND d_id = @d"
	sqlDistrictNext   = "SELECT d_next_o_id, d_tax FROM district WHERE d_w_id = @w AND d_id = @d"
	sqlWarehouseTax   = "SELECT w_tax FROM warehouse WHERE w_id = @w"
	sqlCustomerCredit = "SELECT c_discount, c_credit FROM customer WHERE c_w_id = @w AND c_d_id = @d AND c_id = @c"
	sqlOrderInsert    = "INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_entry_d, o_carrier_id, o_ol_cnt, o_all_local) VALUES (@a, @b, @c, @d, @e, @f, @g, @h)"
	sqlNewOrderInsert = "INSERT INTO neworder (no_w_id, no_d_id, no_o_id) VALUES (@a, @b, @c)"
	sqlItemPrice      = "SELECT i_price FROM item WHERE i_id = @i"
	sqlStockQty       = "SELECT s_quantity FROM stock WHERE s_w_id = @w AND s_i_id = @i"
	sqlStockUpdate    = "UPDATE stock SET s_quantity = @q, s_ytd = s_ytd + @y, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = @w AND s_i_id = @i"
	sqlOrderLineIns   = "INSERT INTO orderline (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_supply_w_id, ol_delivery_d, ol_quantity, ol_amount, ol_dist_info) VALUES (@a, @b, @c, @d, @e, @f, @g, @h, @i, @j)"
	sqlCustomerByName = "SELECT c_id, c_first, c_balance FROM customer WHERE c_w_id = @w AND c_d_id = @d AND c_last = @l"
	sqlCustomerByID   = "SELECT c_id, c_balance FROM customer WHERE c_w_id = @w AND c_d_id = @d AND c_id = @c"
	sqlWarehousePay   = "UPDATE warehouse SET w_ytd = w_ytd + @h WHERE w_id = @w"
	sqlDistrictPay    = "UPDATE district SET d_ytd = d_ytd + @h WHERE d_w_id = @w AND d_id = @d"
	sqlCustomerPay    = "UPDATE customer SET c_balance = c_balance - @h, c_ytd_payment = c_ytd_payment + @h, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = @w AND c_d_id = @d AND c_id = @c"
	sqlHistoryInsert  = "INSERT INTO history (h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, h_date, h_amount, h_data) VALUES (@a, @b, @c, @d, @e, @f, @g, @h)"
	sqlLastOrder      = "SELECT MAX(o_id) FROM orders WHERE o_w_id = @w AND o_d_id = @d AND o_c_id = @c"
	sqlOrderLines     = "SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d FROM orderline WHERE ol_w_id = @w AND ol_d_id = @d AND ol_o_id = @o"
	sqlOldestNewOrder = "SELECT MIN(no_o_id) FROM neworder WHERE no_w_id = @w AND no_d_id = @d"
	sqlNewOrderDelete = "DELETE FROM neworder WHERE no_w_id = @w AND no_d_id = @d AND no_o_id = @o"
	sqlOrderCustomer  = "SELECT o_c_id FROM orders WHERE o_w_id = @w AND o_d_id = @d AND o_id = @o"
	sqlOrderCarrier   = "UPDATE orders SET o_carrier_id = @c WHERE o_w_id = @w AND o_d_id = @d AND o_id = @o"
	sqlOrderLineDeliv = "UPDATE orderline SET ol_delivery_d = @n WHERE ol_w_id = @w AND ol_d_id = @d AND ol_o_id = @o"
	sqlOrderLineSum   = "SELECT SUM(ol_amount) FROM orderline WHERE ol_w_id = @w AND ol_d_id = @d AND ol_o_id = @o"
	sqlCustomerDeliv  = "UPDATE customer SET c_balance = c_balance + @t, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = @w AND c_d_id = @d AND c_id = @c"
	sqlDistrictPeek   = "SELECT d_next_o_id FROM district WHERE d_w_id = @w AND d_id = @d"
	sqlStockLevel     = "SELECT COUNT(DISTINCT ol_i_id) FROM orderline JOIN stock ON ol_i_id = s_i_id WHERE ol_w_id = @w AND ol_d_id = @d AND ol_o_id >= @lo AND s_w_id = @w2 AND s_quantity < @t"
)

// tpccStatements is every distinct statement text of the mix, for the
// engine.parse ladder rung.
var tpccStatements = []string{
	sqlDistrictBump, sqlDistrictNext, sqlWarehouseTax, sqlCustomerCredit, sqlOrderInsert,
	sqlNewOrderInsert, sqlItemPrice, sqlStockQty, sqlStockUpdate, sqlOrderLineIns,
	sqlCustomerByName, sqlCustomerByID, sqlWarehousePay, sqlDistrictPay, sqlCustomerPay,
	sqlHistoryInsert, sqlLastOrder, sqlOrderLines, sqlOldestNewOrder, sqlNewOrderDelete,
	sqlOrderCustomer, sqlOrderCarrier, sqlOrderLineDeliv, sqlOrderLineSum, sqlCustomerDeliv,
	sqlDistrictPeek, sqlStockLevel,
}

// tpccOpNames indexes the five transaction types like tpcc.TxTypeNames.
var tpccOpNames = tpcc.TxTypeNames[:]

type args = map[string]sqltypes.Value

func iv(v int64) sqltypes.Value   { return sqltypes.Int(v) }
func fv(v float64) sqltypes.Value { return sqltypes.Float(v) }
func sv(v string) sqltypes.Value  { return sqltypes.Str(v) }

// errIntentionalRollback marks the spec's 1% NewOrder rollback, which counts
// as a completed transaction.
var errIntentionalRollback = errors.New("tpcc: intentional rollback (invalid item)")

// terminal is one emulated TPC-C terminal: a connection, a home warehouse
// and a seeded RNG. Every value that reaches the server comes from the RNG
// (timestamps included), so a seed fixes the statement stream.
type terminal struct {
	conn  *driver.Conn
	rng   *rand.Rand
	scale tpcc.Scale
	wID   int
	mix   *deck // 45/43/4/4/4, indexed like tpcc.TxTypeNames
	nuC   int   // NURand per-run constant
	clock int64 // deterministic microsecond timestamp source

	calls callTimer

	// traced turns on per-statement trace-ID collection: every completed
	// transaction's statement IDs are filed under its type, joining the
	// client's transactions to the server's traces.
	traced bool
	ids    [5][]trace.ID
}

// callTimer accumulates the time one client spends inside calls to the layer
// below it (driver.Conn.Exec here, database/sql calls in the enc_* clients).
// The runner reads and resets it around every operation.
type callTimer struct {
	ns    int64
	count int
}

// since books one call that began at start; use as
// defer c.since(time.Now()).
func (c *callTimer) since(start time.Time) {
	c.ns += int64(time.Since(start))
	c.count++
}

func (c *callTimer) take() (ns int64, count int) {
	ns, count = c.ns, c.count
	c.ns, c.count = 0, 0
	return ns, count
}

func newTerminal(conn *driver.Conn, scale tpcc.Scale, homeWarehouse int, seed int64) *terminal {
	rng := rand.New(rand.NewSource(seed))
	return &terminal{conn: conn, rng: rng, scale: scale, wID: homeWarehouse,
		mix: newDeck(rng, 45, 43, 4, 4, 4),
		nuC: rng.Intn(256), clock: 1_600_000_000_000_000 + seed}
}

func (t *terminal) exec(query string, a args) (*driver.Rows, error) {
	defer t.calls.since(time.Now())
	return t.conn.Exec(query, a)
}

// timed runs one transaction-control call under the call timer.
func (t *terminal) timed(fn func() error) error {
	defer t.calls.since(time.Now())
	return fn()
}

func (t *terminal) begin() error  { return t.timed(t.conn.Begin) }
func (t *terminal) commit() error { return t.timed(t.conn.Commit) }

// abortOn rolls back and returns err: the error that caused the rollback is
// the one worth reporting, not the rollback's own.
func (t *terminal) abortOn(err error) error {
	_ = t.timed(t.conn.Rollback)
	return err
}

func (t *terminal) now() int64 {
	t.clock += 1 + int64(t.rng.Intn(1000))
	return t.clock
}

func (t *terminal) nuRand(a, x, y int) int {
	return (((t.rng.Intn(a+1) | (x + t.rng.Intn(y-x+1))) + t.nuC) % (y - x + 1)) + x
}

func (t *terminal) randDistrict() int   { return 1 + t.rng.Intn(t.scale.DistrictsPerWarehouse) }
func (t *terminal) randCustomerID() int { return t.nuRand(1023, 1, t.scale.CustomersPerDistrict) }
func (t *terminal) randItem() int       { return t.nuRand(8191, 1, t.scale.Items) }

// nameSpace mirrors tpcc.Scale's unexported last-name distribution size
// (about three customers per name, as in the spec).
func nameSpace(s tpcc.Scale) int {
	n := s.CustomersPerDistrict / 3
	if n < 1 {
		n = 1
	}
	if n > 1000 {
		n = 1000
	}
	return n
}

func (t *terminal) randLastName() string {
	ns := nameSpace(t.scale)
	return tpcc.LastName(t.nuRand(255, 0, ns-1) % ns)
}

// next executes one transaction of the standard mix (NewOrder 45,
// Payment 43, OrderStatus 4, Delivery 4, StockLevel 4), dealt from a deck,
// and returns its type.
func (t *terminal) next() (typ int, err error) {
	if t.traced {
		t.conn.CollectTraceIDs(true)
	}
	typ = t.mix.next()
	switch typ {
	case tpcc.TxNewOrder:
		err = t.newOrder()
	case tpcc.TxPayment:
		err = t.payment()
	case tpcc.TxOrderStatus:
		err = t.orderStatus()
	case tpcc.TxDelivery:
		err = t.delivery()
	case tpcc.TxStockLevel:
		err = t.stockLevel()
	}
	if errors.Is(err, errIntentionalRollback) {
		err = nil
	}
	if t.traced && err == nil {
		t.ids[typ] = append(t.ids[typ], t.conn.CollectedTraceIDs()...)
	}
	return typ, err
}

func (t *terminal) timer() *callTimer { return &t.calls }

// newOrder is TPC-C §2.4.
func (t *terminal) newOrder() error {
	d := t.randDistrict()
	c := t.randCustomerID()
	olCnt := 5 + t.rng.Intn(11)
	invalid := t.rng.Intn(100) == 0 // spec: 1% contain an invalid item

	// Items are processed in sorted order so concurrent NewOrders lock stock
	// rows consistently (the standard TPC-C deadlock avoidance).
	items := make([]int, olCnt)
	for i := range items {
		items[i] = t.randItem()
	}
	sort.Ints(items)
	if invalid {
		items[olCnt-1] = t.scale.Items + 100000
	}
	w := iv(int64(t.wID))

	if err := t.begin(); err != nil {
		return err
	}
	if _, err := t.exec(sqlDistrictBump, args{"w": w, "d": iv(int64(d))}); err != nil {
		return t.abortOn(err)
	}
	rows, err := t.exec(sqlDistrictNext, args{"w": w, "d": iv(int64(d))})
	if err != nil {
		return t.abortOn(err)
	}
	oID := rows.Values[0][0].I - 1
	if _, err := t.exec(sqlWarehouseTax, args{"w": w}); err != nil {
		return t.abortOn(err)
	}
	if _, err := t.exec(sqlCustomerCredit, args{"w": w, "d": iv(int64(d)), "c": iv(int64(c))}); err != nil {
		return t.abortOn(err)
	}
	if _, err := t.exec(sqlOrderInsert, args{
		"a": w, "b": iv(int64(d)), "c": iv(oID), "d": iv(int64(c)),
		"e": sqltypes.Datetime(t.now()), "f": iv(0), "g": iv(int64(olCnt)), "h": iv(1),
	}); err != nil {
		return t.abortOn(err)
	}
	if _, err := t.exec(sqlNewOrderInsert, args{"a": w, "b": iv(int64(d)), "c": iv(oID)}); err != nil {
		return t.abortOn(err)
	}
	for ol := 1; ol <= olCnt; ol++ {
		item := iv(int64(items[ol-1]))
		rows, err := t.exec(sqlItemPrice, args{"i": item})
		if err != nil {
			return t.abortOn(err)
		}
		if len(rows.Values) == 0 {
			return t.abortOn(errIntentionalRollback)
		}
		price := rows.Values[0][0].F
		qty := 1 + t.rng.Intn(10)
		rows, err = t.exec(sqlStockQty, args{"w": w, "i": item})
		if err != nil {
			return t.abortOn(err)
		}
		newQty := rows.Values[0][0].I - int64(qty)
		if newQty < 10 {
			newQty += 91
		}
		if _, err := t.exec(sqlStockUpdate, args{"q": iv(newQty), "y": fv(float64(qty)), "w": w, "i": item}); err != nil {
			return t.abortOn(err)
		}
		if _, err := t.exec(sqlOrderLineIns, args{
			"a": w, "b": iv(int64(d)), "c": iv(oID), "d": iv(int64(ol)),
			"e": item, "f": w, "g": sqltypes.Datetime(0),
			"h": iv(int64(qty)), "i": fv(price * float64(qty)), "j": sv("dist-info-123456789012"),
		}); err != nil {
			return t.abortOn(err)
		}
	}
	return t.commit()
}

// selectCustomer is the §5.3 customer selection: 60% by C_LAST (the
// encrypted predicate; the median by C_FIRST is picked client-side), 40% by
// C_ID.
func (t *terminal) selectCustomer(wID, d int) (int64, error) {
	if t.rng.Intn(100) < 60 {
		last := t.randLastName()
		rows, err := t.exec(sqlCustomerByName, args{"w": iv(int64(wID)), "d": iv(int64(d)), "l": sv(last)})
		if err != nil {
			return 0, err
		}
		if len(rows.Values) == 0 {
			return 0, fmt.Errorf("tpcc: no customer with last name %s", last)
		}
		sort.Slice(rows.Values, func(i, j int) bool {
			return strings.Compare(rows.Values[i][1].S, rows.Values[j][1].S) < 0
		})
		return rows.Values[len(rows.Values)/2][0].I, nil
	}
	c := t.randCustomerID()
	rows, err := t.exec(sqlCustomerByID, args{"w": iv(int64(wID)), "d": iv(int64(d)), "c": iv(int64(c))})
	if err != nil {
		return 0, err
	}
	if len(rows.Values) == 0 {
		return 0, fmt.Errorf("tpcc: customer %d missing", c)
	}
	return rows.Values[0][0].I, nil
}

// payment is TPC-C §2.5 with the §5.3 modifications.
func (t *terminal) payment() error {
	d := t.randDistrict()
	amount := 1 + t.rng.Float64()*4999
	cw, cd := t.wID, d
	if t.rng.Intn(100) < 15 && t.scale.Warehouses > 1 { // 15% remote customer
		for cw == t.wID {
			cw = 1 + t.rng.Intn(t.scale.Warehouses)
		}
		cd = t.randDistrict()
	}
	w := iv(int64(t.wID))

	if err := t.begin(); err != nil {
		return err
	}
	if _, err := t.exec(sqlWarehousePay, args{"h": fv(amount), "w": w}); err != nil {
		return t.abortOn(err)
	}
	if _, err := t.exec(sqlDistrictPay, args{"h": fv(amount), "w": w, "d": iv(int64(d))}); err != nil {
		return t.abortOn(err)
	}
	cID, err := t.selectCustomer(cw, cd)
	if err != nil {
		return t.abortOn(err)
	}
	if _, err := t.exec(sqlCustomerPay, args{"h": fv(amount), "w": iv(int64(cw)), "d": iv(int64(cd)), "c": iv(cID)}); err != nil {
		return t.abortOn(err)
	}
	if _, err := t.exec(sqlHistoryInsert, args{
		"a": iv(cID), "b": iv(int64(cd)), "c": iv(int64(cw)), "d": iv(int64(d)), "e": w,
		"f": sqltypes.Datetime(t.now()), "g": fv(amount), "h": sv("payment"),
	}); err != nil {
		return t.abortOn(err)
	}
	return t.commit()
}

// orderStatus is TPC-C §2.6 (read-only).
func (t *terminal) orderStatus() error {
	d := t.randDistrict()
	cID, err := t.selectCustomer(t.wID, d)
	if err != nil {
		return err
	}
	w := iv(int64(t.wID))
	rows, err := t.exec(sqlLastOrder, args{"w": w, "d": iv(int64(d)), "c": iv(cID)})
	if err != nil {
		return err
	}
	if len(rows.Values) == 0 || rows.Values[0][0].IsNull() {
		return nil // customer has no orders
	}
	_, err = t.exec(sqlOrderLines, args{"w": w, "d": iv(int64(d)), "o": iv(rows.Values[0][0].I)})
	return err
}

// delivery is TPC-C §2.7: one transaction per district, all counted as one
// operation.
func (t *terminal) delivery() error {
	carrier := int64(1 + t.rng.Intn(10))
	now := t.now()
	for d := 1; d <= t.scale.DistrictsPerWarehouse; d++ {
		if err := t.deliverDistrict(d, carrier, now); err != nil {
			return err
		}
	}
	return nil
}

func (t *terminal) deliverDistrict(d int, carrier, now int64) error {
	w, dv := iv(int64(t.wID)), iv(int64(d))
	if err := t.begin(); err != nil {
		return err
	}
	rows, err := t.exec(sqlOldestNewOrder, args{"w": w, "d": dv})
	if err != nil {
		return t.abortOn(err)
	}
	if len(rows.Values) == 0 || rows.Values[0][0].IsNull() {
		return t.commit() // nothing to deliver
	}
	o := iv(rows.Values[0][0].I)
	res, err := t.exec(sqlNewOrderDelete, args{"w": w, "d": dv, "o": o})
	if err != nil {
		return t.abortOn(err)
	}
	if res.Affected == 0 {
		return t.commit() // raced with a concurrent delivery
	}
	rows, err = t.exec(sqlOrderCustomer, args{"w": w, "d": dv, "o": o})
	if err != nil || len(rows.Values) == 0 {
		return t.abortOn(fmt.Errorf("tpcc: order %d missing: %v", o.I, err))
	}
	cID := rows.Values[0][0].I
	if _, err := t.exec(sqlOrderCarrier, args{"c": iv(carrier), "w": w, "d": dv, "o": o}); err != nil {
		return t.abortOn(err)
	}
	if _, err := t.exec(sqlOrderLineDeliv, args{"n": sqltypes.Datetime(now), "w": w, "d": dv, "o": o}); err != nil {
		return t.abortOn(err)
	}
	rows, err = t.exec(sqlOrderLineSum, args{"w": w, "d": dv, "o": o})
	if err != nil {
		return t.abortOn(err)
	}
	total := 0.0
	if len(rows.Values) > 0 && !rows.Values[0][0].IsNull() {
		total = rows.Values[0][0].F
	}
	if _, err := t.exec(sqlCustomerDeliv, args{"t": fv(total), "w": w, "d": dv, "c": iv(cID)}); err != nil {
		return t.abortOn(err)
	}
	return t.commit()
}

// stockLevel is TPC-C §2.8.
func (t *terminal) stockLevel() error {
	d := t.randDistrict()
	threshold := int64(10 + t.rng.Intn(11))
	w := iv(int64(t.wID))
	rows, err := t.exec(sqlDistrictPeek, args{"w": w, "d": iv(int64(d))})
	if err != nil {
		return err
	}
	lo := rows.Values[0][0].I - 20
	if lo < 1 {
		lo = 1
	}
	_, err = t.exec(sqlStockLevel, args{"w": w, "d": iv(int64(d)), "lo": iv(lo), "w2": w, "t": iv(threshold)})
	return err
}

// tpccSums is the set of aggregates the TPC-C consistency conditions are
// stated over. It is computed by plain SQL over plaintext columns, so the
// key-less replay replica can produce it as well as the primary.
type tpccSums struct {
	WarehouseYTD  float64 `json:"warehouse_ytd"`
	DistrictYTD   float64 `json:"district_ytd"`
	NextOrderIDs  int64   `json:"next_order_ids"`
	Orders        int64   `json:"orders"`
	NewOrders     int64   `json:"new_orders"`
	OrderLines    int64   `json:"order_lines"`
	OrderLineCnts int64   `json:"order_line_counts"`
}

// queryFn runs one parameterized statement and returns decoded rows; the
// primary check binds it to a driver connection, the replica check to an
// engine session.
type queryFn func(query string, a args) ([][]sqltypes.Value, error)

// checkTPCCConsistency verifies TPC-C consistency conditions 1–4 (clause
// 3.3.2) for every warehouse and district and returns the sums they are
// stated over.
func checkTPCCConsistency(q queryFn, s tpcc.Scale) (tpccSums, error) {
	var sums tpccSums
	one := func(query string, a args) ([]sqltypes.Value, error) {
		rows, err := q(query, a)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", query, err)
		}
		if len(rows) != 1 {
			return nil, fmt.Errorf("%s: %d rows", query, len(rows))
		}
		return rows[0], nil
	}
	for wid := 1; wid <= s.Warehouses; wid++ {
		w := iv(int64(wid))
		r, err := one("SELECT w_ytd FROM warehouse WHERE w_id = @w", args{"w": w})
		if err != nil {
			return sums, err
		}
		wYTD := r[0].F
		r, err = one("SELECT SUM(d_ytd) FROM district WHERE d_w_id = @w", args{"w": w})
		if err != nil {
			return sums, err
		}
		if math.Abs(wYTD-r[0].F) > 0.01 {
			return sums, fmt.Errorf("condition 1: warehouse %d w_ytd=%.2f, sum(d_ytd)=%.2f", wid, wYTD, r[0].F)
		}
		sums.WarehouseYTD += wYTD
		sums.DistrictYTD += r[0].F

		for did := 1; did <= s.DistrictsPerWarehouse; did++ {
			wd := args{"w": w, "d": iv(int64(did))}
			r, err = one(sqlDistrictPeek, wd)
			if err != nil {
				return sums, err
			}
			next := r[0].I
			r, err = one("SELECT MAX(o_id), COUNT(*), SUM(o_ol_cnt) FROM orders WHERE o_w_id = @w AND o_d_id = @d", wd)
			if err != nil {
				return sums, err
			}
			maxO, orders, olCnt := r[0].I, r[1].I, int64(r[2].F) // SUM is always a float
			if maxO != next-1 {
				return sums, fmt.Errorf("condition 2: district %d/%d d_next_o_id=%d, max(o_id)=%d", wid, did, next, maxO)
			}
			r, err = one("SELECT MAX(no_o_id), MIN(no_o_id), COUNT(*) FROM neworder WHERE no_w_id = @w AND no_d_id = @d", wd)
			if err != nil {
				return sums, err
			}
			newOrders := r[2].I
			if newOrders > 0 {
				if r[0].I != maxO {
					return sums, fmt.Errorf("condition 2: district %d/%d max(no_o_id)=%d, max(o_id)=%d", wid, did, r[0].I, maxO)
				}
				if r[0].I-r[1].I+1 != newOrders {
					return sums, fmt.Errorf("condition 3: district %d/%d neworder ids [%d,%d] hold %d rows", wid, did, r[1].I, r[0].I, newOrders)
				}
			}
			r, err = one("SELECT COUNT(*) FROM orderline WHERE ol_w_id = @w AND ol_d_id = @d", wd)
			if err != nil {
				return sums, err
			}
			if r[0].I != olCnt {
				return sums, fmt.Errorf("condition 4: district %d/%d sum(o_ol_cnt)=%d, order lines=%d", wid, did, olCnt, r[0].I)
			}
			sums.NextOrderIDs += next
			sums.Orders += orders
			sums.NewOrders += newOrders
			sums.OrderLines += r[0].I
			sums.OrderLineCnts += olCnt
		}
	}
	return sums, nil
}
