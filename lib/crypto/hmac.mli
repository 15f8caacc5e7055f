(** HMAC-SHA256 (RFC 2104).

    Nothing in a simulated run authenticates a message: MAC and signature
    costs are charged by the cost model (see DESIGN.md "Substitutions").
    The one caller is {!Threshold}, which derives the dealer's polynomial
    coefficients as a keyed pseudo-random stream. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)
