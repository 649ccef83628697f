type t = Customer | Provider | Peer | Sibling

let invert = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer
  | Sibling -> Sibling

let to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"
  | Sibling -> "sibling"

let of_string s =
  match String.lowercase_ascii s with
  | "customer" | "cust" | "c" -> Some Customer
  | "provider" | "prov" | "p" -> Some Provider
  | "peer" | "pr" -> Some Peer
  | "sibling" | "sib" | "s" -> Some Sibling
  | _ -> None

let equal (a : t) (b : t) = a = b

let all = [ Customer; Provider; Peer; Sibling ]
