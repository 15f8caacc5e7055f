(** A multiset of requests, indexed by identity (hub, client, rid).

    Every replica asks "have I seen this request?" on its hot path: the
    exec layer's at-most-once rule, the primary's proposal dedup, the
    client-forward check. Rids are dense per client (each logical client
    numbers its requests 0, 1, 2, ...), so instead of hashing
    {!Message.request_key} the index keeps, per (hub, client), a growable
    bitset over rids reached by two array lookups. Membership costs one
    bit per request; adding a request allocates nothing except when a
    bitset or a table row has to grow (amortized, by doubling).

    Multiplicities above 1 live in a small side table: a request added
    twice without an intervening {!remove} (a duplicate execution, a block
    stored on two forks) is rare, so the common case never touches it. *)

type t

val create : unit -> t
(** An empty index. Nothing is pre-sized: rows and bitsets are allocated
    on first use. *)

val mem : t -> Message.request -> bool
(** Whether the request's multiplicity is at least 1. *)

val add : t -> Message.request -> unit
(** Increment the request's multiplicity. *)

val remove : t -> Message.request -> unit
(** Decrement the request's multiplicity; no-op when absent. *)

val clear : t -> unit
(** Forget every request (and release the memory). *)
