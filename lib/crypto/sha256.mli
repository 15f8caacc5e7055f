(** SHA-256 (FIPS 180-4), implemented from scratch on native integers.

    The paper's ResilientDB fabric uses SHA256 for message digests and for
    hash-chaining ledger blocks; this module provides the same primitive for
    our {!Poe_ledger} and for {!Hmac}.

    Digests are returned as raw 32-byte strings; use {!to_hex} for display. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot hash of a full message: 32 raw bytes. *)

val digest_list : string list -> string
(** Hash of the concatenation of the given strings, without building the
    concatenation. *)

val to_hex : string -> string
(** Lowercase hexadecimal rendering of a raw digest (or any string). *)

val digest_size : int
(** 32. *)
