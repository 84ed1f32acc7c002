//! The global interner under concurrent use. This file is its own test
//! binary with a single test, so the process-wide interner starts empty
//! and `len` — the `intern_symbols` gauge — can be checked exactly.

use seldon_intern::{intern, len, lookup, resolve, Symbol};

#[test]
fn threads_share_symbols_through_their_caches() {
    assert_eq!(len(), 0, "fresh process, empty global interner");
    let symbols: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                scope.spawn(move || {
                    // Every thread walks the same 64 strings from a
                    // different starting point, several times over, so
                    // first interning races and later calls hit the cache.
                    let mut by_text = vec![Symbol(u32::MAX); 64];
                    for round in 0..4 {
                        for k in 0..64 {
                            let n = (k + t * 8 + round) % 64;
                            let text = format!("pkg{n}.api()");
                            let sym = intern(&text);
                            assert_eq!(resolve(sym), text, "exact round trip");
                            assert_eq!(lookup(&text), Some(sym));
                            assert!(by_text[n] == Symbol(u32::MAX) || by_text[n] == sym);
                            by_text[n] = sym;
                        }
                    }
                    by_text
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for per_thread in &symbols[1..] {
        assert_eq!(
            per_thread, &symbols[0],
            "every thread sees the same symbols"
        );
    }
    let mut distinct = symbols[0].clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        64,
        "64 distinct strings, 64 distinct symbols"
    );
    // The gauge counts distinct strings, not per-thread cache entries.
    assert_eq!(len(), 64);
    for (n, sym) in symbols[0].iter().enumerate() {
        assert_eq!(sym.as_str(), format!("pkg{n}.api()"));
    }
    assert_eq!(lookup("never.interned()"), None);
    assert_eq!(len(), 64, "lookup never interns");
}
