package driver

import "fmt"

// Exec mirrors the repo driver: retry read-only statements once after
// failover, surface ErrIndeterminate for in-flight DML.
func (c *Conn) Exec(q string, dml bool) (int, error) {
	rows, sent, err := c.execOnce(q)
	if err == nil {
		return rows, nil
	}
	if sent && dml {
		c.failover()
		return 0, fmt.Errorf("%w: %v", ErrIndeterminate, err)
	}
	if c.failover() {
		rows, _, err = c.execOnce(q)
	}
	return rows, err
}

// ExecSwallow drops the statement outcome after failover: no retry, no
// ErrIndeterminate.
func (c *Conn) ExecSwallow(q string) (int, error) {
	rows, sent, err := c.execOnce(q)
	if err == nil || !sent {
		return rows, err
	}
	c.failover() // want "failover not followed by a retry or ErrIndeterminate"
	return rows, nil
}

// ExecForever resends transparently until the statement sticks —
// exactly what exactly-once forbids.
func (c *Conn) ExecForever(q string) (int, error) {
	for {
		rows, _, err := c.execOnce(q) // want "statement executed more than 2 times on one path"
		if err == nil {
			return rows, nil
		}
		if !c.failover() {
			return 0, err
		}
	}
}

// retry mirrors the repo driver's one retry wrapper: the request is a
// callback, rerun once after a failover that cannot have duplicated it.
func (c *Conn) retry(once func() (applied bool, err error)) error {
	applied, err := once()
	if err == nil {
		return nil
	}
	if applied {
		c.failover()
		return fmt.Errorf("%w: %v", ErrIndeterminate, err)
	}
	if c.failover() {
		_, err = once()
	}
	return err
}

// ExecWrapped is Exec on top of the wrapper.
func (c *Conn) ExecWrapped(q string) (rows int, err error) {
	err = c.retry(func() (sent bool, err error) {
		rows, sent, err = c.execOnce(q)
		return sent, err
	})
	return rows, err
}

// retrySwallow fails over and reports success without running the
// request again.
func (c *Conn) retrySwallow(once func() (bool, error)) error {
	if _, err := once(); err == nil {
		return nil
	}
	c.failover() // want "failover not followed by a retry or ErrIndeterminate"
	return nil
}

// retryForever reruns the callback until it sticks.
func (c *Conn) retryForever(once func() (bool, error)) error {
	for {
		_, err := once() // want "request run more than 2 times on one path"
		if err == nil {
			return nil
		}
		if !c.failover() {
			return err
		}
	}
}
