(* Arbitrary-precision integers in zarith's representation.  A value v
   with |v| <= imm_max (= 2^61 - 1) is an immediate OCaml [int]; anything
   larger is a boxed sign-magnitude block whose magnitude is stored
   little-endian in base 2^30.  Boxed invariants: [sign] is -1 or 1, no
   leading (high-order) zero digit, every digit is in [0, 2^30), and the
   magnitude exceeds imm_max.  Every constructor demotes a boxed result
   that fits, so each integer has exactly one representation.  The
   symmetric immediate range makes [neg] total on immediates, and the
   sum or difference of two immediates cannot overflow a native [int].
   [Obj] is used only in this file, to tell the two forms apart. *)

let bits_per_digit = 30
let base = 1 lsl bits_per_digit
let mask = base - 1
let imm_max = (1 lsl 61) - 1

type boxed = { sign : int; mag : int array }
type t

let is_imm (x : t) = Obj.is_int (Obj.repr x)
let imm (x : t) : int = Obj.magic x
let unbox (x : t) : boxed = Obj.magic x
let of_imm (n : int) : t = Obj.magic n
let box (b : boxed) : t = Obj.magic b

let zero = of_imm 0

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (operate on raw digit arrays).                    *)

let normalize_mag mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi = n - 1 then mag else Array.sub mag 0 (hi + 1)

(* Canonical value of [sign * mag]: an immediate when at most 61 bits of
   magnitude remain after normalization, a boxed block otherwise. *)
let make sign mag =
  let mag = normalize_mag mag in
  let n = Array.length mag in
  if n < 3 || (n = 3 && mag.(2) < 2) then begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl bits_per_digit) lor mag.(i)
    done;
    of_imm (sign * !v)
  end
  else box { sign; mag }

(* Digits of a native int in [0, max_int]. *)
let mag_of_nonneg n =
  if n = 0 then [||]
  else if n < base then [| n |]
  else if n lsr bits_per_digit < base then [| n land mask; n lsr bits_per_digit |]
  else [| n land mask; (n lsr bits_per_digit) land mask; n lsr (2 * bits_per_digit) |]

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land mask;
    carry := s lsr bits_per_digit
  done;
  r

(* Requires [a >= b] as magnitudes. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land mask;
        carry := cur lsr bits_per_digit
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land mask;
        carry := cur lsr bits_per_digit;
        incr k
      done
    done;
    r
  end

(* Multiply a magnitude by a small non-negative native int (< 2^30). *)
let mul_mag_small a m =
  if m = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * m) + !carry in
      r.(i) <- cur land mask;
      carry := cur lsr bits_per_digit
    done;
    let k = ref la in
    while !carry <> 0 do
      r.(!k) <- !carry land mask;
      carry := !carry lsr bits_per_digit;
      incr k
    done;
    r
  end

(* Add a small non-negative native int (< 2^30) to a magnitude. *)
let add_mag_small a m =
  let la = Array.length a in
  let r = Array.make (la + 1) 0 in
  Array.blit a 0 r 0 la;
  let carry = ref m in
  let i = ref 0 in
  while !carry <> 0 do
    let cur = r.(!i) + !carry in
    r.(!i) <- cur land mask;
    carry := cur lsr bits_per_digit;
    incr i
  done;
  r

let bit_length_mag a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((la - 1) * bits_per_digit) + width 1
  end

let get_bit a k =
  (a.(k / bits_per_digit) lsr (k mod bits_per_digit)) land 1

(* Divide a magnitude by a small positive int (< 2^30); returns quotient
   digits and native remainder. *)
let divmod_mag_small a m =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl bits_per_digit) lor a.(i) in
    q.(i) <- cur / m;
    rem := cur mod m
  done;
  (q, !rem)

(* Long division of magnitudes.  A one-digit divisor takes the
   digit-at-a-time [divmod_mag_small]; longer divisors go bit at a time,
   which is adequate for the modest coefficient sizes produced by the
   solver. *)
let divmod_mag a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if compare_mag a b < 0 then ([||], Array.copy a)
  else if lb = 1 then begin
    let q, r = divmod_mag_small a b.(0) in
    (q, [| r |])
  end
  else begin
    let la = Array.length a in
    let bits = bit_length_mag a in
    let q = Array.make la 0 in
    let r = Array.make (lb + 1) 0 in
    (* [r >= b] where r is a (lb+1)-digit window. *)
    let r_ge_b () =
      if r.(lb) <> 0 then true
      else
        let rec go i =
          if i < 0 then true
          else if r.(i) <> b.(i) then r.(i) > b.(i)
          else go (i - 1)
        in
        go (lb - 1)
    in
    let r_sub_b () =
      let borrow = ref 0 in
      for i = 0 to lb do
        let db = if i < lb then b.(i) else 0 in
        let s = r.(i) - db - !borrow in
        if s < 0 then begin
          r.(i) <- s + base;
          borrow := 1
        end
        else begin
          r.(i) <- s;
          borrow := 0
        end
      done;
      assert (!borrow = 0)
    in
    for k = bits - 1 downto 0 do
      let carry = ref (get_bit a k) in
      for i = 0 to lb do
        let v = (r.(i) lsl 1) lor !carry in
        r.(i) <- v land mask;
        carry := v lsr bits_per_digit
      done;
      if r_ge_b () then begin
        r_sub_b ();
        q.(k / bits_per_digit) <-
          q.(k / bits_per_digit) lor (1 lsl (k mod bits_per_digit))
      end
    done;
    (q, r)
  end

(* ------------------------------------------------------------------ *)
(* Public operations.                                                  *)

let one = of_imm 1
let two = of_imm 2
let minus_one = of_imm (-1)

(* The magnitude of [min_int], 2^62, as digits. *)
let min_int_mag = [| 0; 0; 1 lsl (62 - (2 * bits_per_digit)) |]

let of_int n =
  if n >= -imm_max && n <= imm_max then of_imm n
  else if n = min_int then box { sign = -1; mag = min_int_mag }
  else box { sign = (if n > 0 then 1 else -1); mag = mag_of_nonneg (Stdlib.abs n) }

let sign x = if is_imm x then Stdlib.compare (imm x) 0 else (unbox x).sign
let is_zero x = x == zero

(* Sign-magnitude view of any value, for the boxed paths. *)
let mag x = if is_imm x then mag_of_nonneg (Stdlib.abs (imm x)) else (unbox x).mag

(* An immediate is smaller in magnitude than any boxed value, so mixed
   comparisons are decided by the boxed operand's sign. *)
let compare a b =
  match (is_imm a, is_imm b) with
  | true, true -> Stdlib.compare (imm a) (imm b)
  | true, false -> -(unbox b).sign
  | false, true -> (unbox a).sign
  | false, false ->
    let a = unbox a and b = unbox b in
    if a.sign <> b.sign then Stdlib.compare a.sign b.sign
    else if a.sign > 0 then compare_mag a.mag b.mag
    else compare_mag b.mag a.mag

let equal a b = a == b || ((not (is_imm a)) && (not (is_imm b)) && compare a b = 0)
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* The base-2^30 digit fold the sign-magnitude form has always used, so
   hashes (and the tables keyed by them) do not depend on which form
   holds a value.  Immediates fold their at most three digits in place. *)
let hash x =
  if is_imm x then begin
    let v = imm x in
    let n = Stdlib.abs v in
    let acc = if v > 0 then 8 else if v < 0 then 6 else 7 in
    let acc = if n > 0 then (acc * 31) + (n land mask) else acc in
    let acc = if n >= base then (acc * 31) + ((n lsr bits_per_digit) land mask) else acc in
    let acc = if n lsr (2 * bits_per_digit) > 0 then (acc * 31) + (n lsr (2 * bits_per_digit)) else acc in
    acc land max_int
  end
  else Array.fold_left (fun acc d -> (acc * 31) + d) ((unbox x).sign + 7) (unbox x).mag land max_int

let neg x = if is_imm x then of_imm (-imm x) else box { (unbox x) with sign = -(unbox x).sign }
let abs x = if sign x < 0 then neg x else x

let add_slow a b =
  let sa = sign a and sb = sign b in
  if sa = 0 then b
  else if sb = 0 then a
  else begin
    let ma = mag a and mb = mag b in
    if sa = sb then make sa (add_mag ma mb)
    else begin
      let c = compare_mag ma mb in
      if c = 0 then zero
      else if c > 0 then make sa (sub_mag ma mb)
      else make sb (sub_mag mb ma)
    end
  end

let add a b = if is_imm a && is_imm b then of_int (imm a + imm b) else add_slow a b
let sub a b = if is_imm a && is_imm b then of_int (imm a - imm b) else add_slow a (neg b)
let succ x = add x one
let pred x = sub x one

(* Factors below 2^30 have a product below 2^60: native and immediate. *)
let mul a b =
  if is_imm a && is_imm b && Stdlib.abs (imm a) < base && Stdlib.abs (imm b) < base then
    of_imm (imm a * imm b)
  else begin
    let sa = sign a and sb = sign b in
    if sa = 0 || sb = 0 then zero else make (sa * sb) (mul_mag (mag a) (mag b))
  end

let mul_int x n = mul x (of_int n)

(* An immediate dividend of a boxed divisor is its own remainder. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if is_imm a && is_imm b then (of_imm (imm a / imm b), of_imm (imm a mod imm b))
  else if is_imm a then (zero, a)
  else begin
    let sa = sign a in
    let qm, rm = divmod_mag (mag a) (mag b) in
    (make (sa * sign b) qm, make sa rm)
  end

let div a b = if is_imm a && is_imm b then of_imm (imm a / imm b) else fst (divmod a b)
let rem a b = if is_imm a && is_imm b then of_imm (imm a mod imm b) else snd (divmod a b)

let ediv_emod a b =
  let q, r = divmod a b in
  if sign r >= 0 then (q, r)
  else if sign b > 0 then (pred q, add r b)
  else (succ q, sub r b)

let fdiv a b =
  let q, r = divmod a b in
  let sr = sign r in
  if sr = 0 || sr = sign b then q else pred q

let cdiv a b =
  let q, r = divmod a b in
  let sr = sign r in
  if sr = 0 || sr <> sign b then q else succ q

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let rec gcd a b =
  if is_imm a && is_imm b then of_imm (gcd_int (Stdlib.abs (imm a)) (Stdlib.abs (imm b)))
  else if is_zero b then abs a
  else gcd b (rem a b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (mul (div a (gcd a b)) b)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc base) (mul base base) (n lsr 1)
    else go acc (mul base base) (n lsr 1)
  in
  go one x n

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left: negative shift";
  mul x (pow two n)

(* Native ints span [-2^62, 2^62 - 1]: every immediate, every boxed value
   of at most 62 bits, and -2^62 itself. *)
let fits_int x =
  is_imm x
  ||
  let b = unbox x in
  bit_length_mag b.mag <= 62 || (b.sign < 0 && compare_mag b.mag min_int_mag = 0)

let to_int x =
  if is_imm x then Some (imm x)
  else if not (fits_int x) then None
  else begin
    let b = unbox x in
    (* -2^62 wraps to [min_int] and stays there under negation. *)
    let v = Array.fold_right (fun d acc -> (acc lsl bits_per_digit) lor d) b.mag 0 in
    Some (if b.sign < 0 then -v else v)
  end

let to_int_exn x =
  match to_int x with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: does not fit in a native int"

let to_string x =
  if is_imm x then string_of_int (imm x)
  else begin
    let b = unbox x in
    let chunks = ref [] in
    let m = ref b.mag in
    while Array.length (normalize_mag !m) > 0 do
      let q, r = divmod_mag_small !m 1_000_000_000 in
      chunks := r :: !chunks;
      m := normalize_mag q
    done;
    let buf = Buffer.create 32 in
    if b.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let mag = ref [||] in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: invalid digit";
    mag := add_mag_small (mul_mag_small !mag 10) (Char.code c - Char.code '0')
  done;
  let v = make 1 !mag in
  if negative then neg v else v

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
