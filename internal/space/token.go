package space

// RebindTxn re-addresses transaction t through sp — the failover path for
// a tokened commit/abort retry: the original primary is gone, but the
// promoted backup's memo table knows whether the commit executed, and its
// service answers a retried commit carrying the same token and txn id
// from that memo (an unknown txn with no memo still surfaces
// ErrTxnInactive: the transaction genuinely died with the primary). Only
// proxy transactions rebind; for any other handle RebindTxn returns nil
// and the caller must surface the original error.
func RebindTxn(sp Space, t Txn) Txn {
	pt, ok := t.(*proxyTxn)
	if !ok {
		return nil
	}
	np, ok := sp.(*Proxy)
	if !ok {
		return nil
	}
	return &proxyTxn{p: np, id: pt.id}
}
