package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/sqltypes"
)

// loader buffers generated rows for one table and flushes them through the
// driver's bulk insert.
type loader struct {
	conn   *driver.Conn
	table  string
	cols   []string
	rows   [][]sqltypes.Value
	loaded *int64 // world-wide row count, for load-rate reporting
}

// loadFlushRows bounds how many rows a loader buffers before flushing, so a
// large world never materializes a whole table in memory.
const loadFlushRows = 4096

func newLoader(conn *driver.Conn, table string, cols ...string) *loader {
	return &loader{conn: conn, table: table, cols: cols}
}

func (l *loader) add(vals ...sqltypes.Value) error {
	if l.loaded != nil {
		*l.loaded++
	}
	l.rows = append(l.rows, vals)
	if len(l.rows) >= loadFlushRows {
		return l.flush()
	}
	return nil
}

func (l *loader) flush() error {
	if len(l.rows) == 0 {
		return nil
	}
	n, err := l.conn.BulkInsert(l.table, l.cols, l.rows)
	if err != nil {
		return fmt.Errorf("tpcc: bulk loading %s: %w", l.table, err)
	}
	if n != len(l.rows) {
		return fmt.Errorf("tpcc: bulk loading %s: %d of %d rows acknowledged", l.table, n, len(l.rows))
	}
	l.rows = l.rows[:0]
	return nil
}

// loaders holds one loader per TPC-C table.
type loaders struct {
	item, warehouse, stock, district, customer, orders, neworder, orderline *loader
}

func (ld *loaders) all() []*loader {
	return []*loader{
		ld.item, ld.warehouse, ld.stock, ld.district,
		ld.customer, ld.orders, ld.neworder, ld.orderline,
	}
}

func (ld *loaders) flushAll() error {
	for _, l := range ld.all() {
		if err := l.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Load populates the world per the (scaled) TPC-C population rules. It runs
// through the driver over an in-process connection, so in encrypted modes
// every PII cell is encrypted client-side exactly as a real load would be.
func (w *World) Load() error {
	conn := w.ConnectPipe(true, nil)
	defer conn.Close()
	rng := rand.New(rand.NewSource(7))
	now := time.Now().UnixMicro()
	s := w.Scale
	ld := &loaders{
		item:      newLoader(conn, "item", "i_id", "i_im_id", "i_name", "i_price", "i_data"),
		warehouse: newLoader(conn, "warehouse", "w_id", "w_name", "w_street_1", "w_city", "w_state", "w_zip", "w_tax", "w_ytd"),
		stock:     newLoader(conn, "stock", "s_w_id", "s_i_id", "s_quantity", "s_ytd", "s_order_cnt", "s_remote_cnt", "s_data"),
		district:  newLoader(conn, "district", "d_w_id", "d_id", "d_name", "d_street_1", "d_city", "d_state", "d_zip", "d_tax", "d_ytd", "d_next_o_id"),
		customer: newLoader(conn, "customer", "c_w_id", "c_d_id", "c_id", "c_first", "c_middle", "c_last",
			"c_street_1", "c_street_2", "c_city", "c_state", "c_zip", "c_phone", "c_since", "c_credit",
			"c_credit_lim", "c_discount", "c_balance", "c_ytd_payment", "c_payment_cnt", "c_delivery_cnt", "c_data"),
		orders:   newLoader(conn, "orders", "o_w_id", "o_d_id", "o_id", "o_c_id", "o_entry_d", "o_carrier_id", "o_ol_cnt", "o_all_local"),
		neworder: newLoader(conn, "neworder", "no_w_id", "no_d_id", "no_o_id"),
		orderline: newLoader(conn, "orderline", "ol_w_id", "ol_d_id", "ol_o_id", "ol_number", "ol_i_id",
			"ol_supply_w_id", "ol_delivery_d", "ol_quantity", "ol_amount", "ol_dist_info"),
	}
	w.rowsLoaded = 0
	for _, l := range ld.all() {
		l.loaded = &w.rowsLoaded
	}

	for i := 1; i <= s.Items; i++ {
		if err := ld.item.add(
			iv(int64(i)), iv(int64(rng.Intn(10000))),
			sv(fmt.Sprintf("item-%06d", i)),
			fv(1+rng.Float64()*99),
			sv(randData(rng, 26)),
		); err != nil {
			return fmt.Errorf("tpcc: loading item %d: %w", i, err)
		}
	}

	for wid := 1; wid <= s.Warehouses; wid++ {
		if err := ld.warehouse.add(
			iv(int64(wid)), sv(fmt.Sprintf("wh-%d", wid)),
			sv("1 Main St"), sv("Seattle"), sv("WA"),
			sv("981090000"), fv(rng.Float64()*0.2), fv(300000),
		); err != nil {
			return err
		}
		for i := 1; i <= s.Items; i++ {
			if err := ld.stock.add(
				iv(int64(wid)), iv(int64(i)),
				iv(int64(10+rng.Intn(91))), fv(0),
				iv(0), iv(0), sv(randData(rng, 26)),
			); err != nil {
				return err
			}
		}
		for did := 1; did <= s.DistrictsPerWarehouse; did++ {
			if err := w.loadDistrict(ld, rng, wid, did, now); err != nil {
				return err
			}
		}
	}
	return ld.flushAll()
}

func (w *World) loadDistrict(ld *loaders, rng *rand.Rand, wid, did int, now int64) error {
	s := w.Scale
	nextOID := s.InitialOrdersPerDistrict + 1
	if err := ld.district.add(
		iv(int64(wid)), iv(int64(did)),
		sv(fmt.Sprintf("d-%d-%d", wid, did)), sv("2 Side St"),
		sv("Zurich"), sv("ZH"), sv("800100000"),
		fv(rng.Float64()*0.2), fv(30000), iv(int64(nextOID)),
	); err != nil {
		return err
	}

	for cid := 1; cid <= s.CustomersPerDistrict; cid++ {
		last := LastName((cid - 1) % s.nameSpace())
		credit := "GC"
		if rng.Intn(10) == 0 {
			credit = "BC"
		}
		if err := ld.customer.add(
			iv(int64(wid)), iv(int64(did)), iv(int64(cid)),
			sv(fmt.Sprintf("First%04d", rng.Intn(10000))), sv("OE"),
			sv(last),
			sv(fmt.Sprintf("%d Cust St", cid)), sv("Apt 1"),
			sv("Portland"), sv("OR"), sv("970010000"),
			sv("555-0100"), sqltypes.Datetime(now), sv(credit),
			fv(50000), fv(rng.Float64()*0.5), fv(-10),
			fv(10), iv(1), iv(0), sv(randData(rng, 100)),
		); err != nil {
			return fmt.Errorf("tpcc: loading customer %d/%d/%d: %w", wid, did, cid, err)
		}
	}

	// Initial orders: one per customer id 1..InitialOrdersPerDistrict, the
	// last third undelivered (in neworder).
	for oid := 1; oid <= s.InitialOrdersPerDistrict; oid++ {
		cid := 1 + rng.Intn(s.CustomersPerDistrict)
		olCnt := 5 + rng.Intn(6)
		delivered := oid <= s.InitialOrdersPerDistrict*2/3
		carrier := int64(1 + rng.Intn(10))
		if !delivered {
			carrier = 0
		}
		if err := ld.orders.add(
			iv(int64(wid)), iv(int64(did)), iv(int64(oid)),
			iv(int64(cid)), sqltypes.Datetime(now),
			iv(carrier), iv(int64(olCnt)), iv(1),
		); err != nil {
			return err
		}
		if !delivered {
			if err := ld.neworder.add(iv(int64(wid)), iv(int64(did)), iv(int64(oid))); err != nil {
				return err
			}
		}
		for ol := 1; ol <= olCnt; ol++ {
			amount := 0.0
			deliveryD := now
			if !delivered {
				amount = 0.01 + rng.Float64()*9999
				deliveryD = 0
			}
			if err := ld.orderline.add(
				iv(int64(wid)), iv(int64(did)), iv(int64(oid)),
				iv(int64(ol)), iv(int64(1+rng.Intn(w.Scale.Items))),
				iv(int64(wid)), sqltypes.Datetime(deliveryD),
				iv(5), fv(amount), sv(randData(rng, 24)),
			); err != nil {
				return err
			}
		}
	}
	return nil
}

func randData(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n/2+rng.Intn(n/2+1))
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}
