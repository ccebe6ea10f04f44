// Empty: its presence lets nozero.go declare mallocgc without a body.
