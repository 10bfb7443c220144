; Coverage traps: both theorems hold over every value their bindings can
; take, but the hypotheses admit values the bindings miss, so coverage
; must fail.  A bound on x does not make x a number: (< 'a 5) is (< 0 5),
; which is true, so 'a satisfies the first hypothesis.  The second
; admits every integer below 3, and the witness must be one of them
; rather than a value just above the binding.

(def-gl-thm member-and-bound-admit-a-symbol
  :hyp (and (member x '(a 1 2)) (< x 5))
  :concl (integerp x)
  :g-bindings `((x ,(g-int 0 1 3))))

(def-gl-thm bound-admits-values-below-the-binding
  :hyp (< x 3)
  :concl (integerp x)
  :g-bindings `((x ,(g-int 0 1 3))))
